package hin

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"sync/atomic"

	"github.com/hinpriv/dehin/internal/par"
)

// On-disk CSR graph format ("HINCSR"), version 1.
//
// A 24-byte header:
//
//	[0:8)   magic "HINCSR01"
//	[8:12)  format version, uint32 LE
//	[12:16) CRC-32C (Castagnoli) of everything after the header
//	[16:24) total file size in bytes, uint64 LE
//
// followed by length-prefixed sections ([uint64 LE length][payload]) in
// fixed order:
//
//	schema      JSON {EntityTypes, LinkTypes}, reconstructed via NewSchema
//	meta        3 x uint64 LE: numEntities, numLinkTypes, numSets
//	etype       one byte per entity
//	labelOff    (n+1) x uint64 LE byte offsets into labelBlob
//	labelBlob   concatenated label bytes
//	attrDict    distinct attribute values, int64 LE, first-occurrence order
//	attrOff     (n+1) x uint64 LE code-index offsets into attrCodes
//	attrCodes   one uint32 LE dictionary code per scalar attribute
//	sets        per set column, name-ascending: uint64 nameLen, name,
//	            (n+1) x uint64 value-index offsets, uint64 valueCount,
//	            values int32 LE
//	adjacency   per link type id ascending, four sections each:
//	            fwd dat, fwd rowOff, rev dat, rev rowOff (see adjcodec.go)
//
// The loader validates the header, then every section's structure - down
// to strict-decoding each adjacency row - before returning, so the hot
// query path may use the trusting decoder on mmap'd bytes.
const (
	csrMagic      = "HINCSR01"
	csrVersion    = 1
	csrHeaderSize = 24
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type schemaJSON struct {
	EntityTypes []EntityType
	LinkTypes   []LinkType
}

func marshalSchema(s *Schema) ([]byte, error) {
	sj := schemaJSON{
		EntityTypes: make([]EntityType, s.NumEntityTypes()),
		LinkTypes:   make([]LinkType, s.NumLinkTypes()),
	}
	for i := range sj.EntityTypes {
		sj.EntityTypes[i] = s.EntityType(EntityTypeID(i))
	}
	for i := range sj.LinkTypes {
		sj.LinkTypes[i] = s.LinkType(LinkTypeID(i))
	}
	return json.Marshal(sj)
}

// WriteCSRFile persists g as a version-1 CSR file. The bytes go to a new
// file in path's directory, which is synced and then renamed over path:
// a failed write leaves any old file untouched, and a CSRFile that still
// maps the old file keeps reading the old graph.
func WriteCSRFile(path string, g *Graph) (err error) {
	f, err := createTempBeside(path)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	w := bufio.NewWriterSize(f, 1<<16)
	hdr, err := encodeCSR(w, g)
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// createTempBeside creates a new, empty file in path's directory with the
// mode os.Create gives (0666 before umask); os.CreateTemp's 0600 would
// lock out a daemon that serves the file as another user. Names already
// taken, by a concurrent write or a crashed one, are skipped.
func createTempBeside(path string) (*os.File, error) {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s.%d-%d.tmp", path, os.Getpid(), i)
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
}

// csrEncoder writes the section stream, folding every byte into the body
// checksum as it goes. Errors are sticky: after the first failure every
// write is a no-op and encodeCSR returns that error.
type csrEncoder struct {
	w    io.Writer
	crc  uint32
	size uint64
	err  error
}

func (e *csrEncoder) write(p []byte) {
	if e.err != nil {
		return
	}
	e.crc = crc32.Update(e.crc, castagnoli, p)
	e.size += uint64(len(p))
	_, e.err = e.w.Write(p)
}

func (e *csrEncoder) section(payload []byte) {
	e.write(appendU64(nil, uint64(len(payload))))
	e.write(payload)
}

// encodeCSR writes g's CSR file image to w: a zeroed header, then the
// sections. It returns the header, which the caller stores over the zeroed
// one. Each payload is built whole before it is written, so its length
// goes out ahead of it; the largest held at once is one adjacency
// direction of one link type.
func encodeCSR(w io.Writer, g *Graph) (hdr [csrHeaderSize]byte, err error) {
	if _, err := w.Write(hdr[:]); err != nil {
		return hdr, err
	}
	e := &csrEncoder{w: w, size: csrHeaderSize}
	sj, err := marshalSchema(g.schema)
	if err != nil {
		return hdr, err
	}
	e.section(sj)

	n := g.n
	setNames := g.SetNames()
	buf := appendU64(nil, uint64(n))
	buf = appendU64(buf, uint64(g.schema.NumLinkTypes()))
	buf = appendU64(buf, uint64(len(setNames)))
	e.section(buf)

	buf = buf[:0]
	for _, t := range g.etype {
		buf = append(buf, byte(t))
	}
	e.section(buf)
	buf = appendU64(buf[:0], 0)
	var off uint64
	for _, l := range g.label {
		off += uint64(len(l))
		buf = appendU64(buf, off)
	}
	e.section(buf)
	buf = buf[:0]
	for _, l := range g.label {
		buf = append(buf, l...)
	}
	e.section(buf)

	// The dictionary precedes the codes but is complete only after them.
	intern := newAttrInterner()
	codes := make([]byte, 0, 4*len(g.attrData))
	for _, a := range g.attrData {
		codes = binary.LittleEndian.AppendUint32(codes, intern.code(a))
	}
	buf = buf[:0]
	for _, a := range intern.dict {
		buf = appendU64(buf, uint64(a))
	}
	e.section(buf)
	buf = buf[:0]
	for _, o := range g.attrOff {
		buf = appendU64(buf, uint64(o))
	}
	e.section(buf)
	e.section(codes)

	buf = buf[:0]
	for _, name := range setNames {
		col := g.sets[name]
		buf = appendU64(buf, uint64(len(name)))
		buf = append(buf, name...)
		for _, o := range col.off {
			buf = appendU64(buf, uint64(o))
		}
		buf = appendU64(buf, uint64(len(col.data)))
		for _, x := range col.data {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		}
	}
	e.section(buf)

	rowOff := make([]byte, 0, (n+1)*8)
	for lt := range g.fwd {
		weighted := g.schema.LinkType(LinkTypeID(lt)).Weighted
		for _, c := range [2]*csr{&g.fwd[lt], g.inRows(LinkTypeID(lt))} {
			buf, rowOff = buf[:0], appendU64(rowOff[:0], 0)
			for v := 0; v < n; v++ {
				tos, ws := c.row(EntityID(v))
				buf = appendAdjRow(buf, tos, ws, weighted)
				rowOff = appendU64(rowOff, uint64(len(buf)))
			}
			e.section(buf)
			e.section(rowOff)
		}
	}
	if e.err != nil {
		return hdr, e.err
	}
	copy(hdr[0:8], csrMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], csrVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], e.crc)
	binary.LittleEndian.PutUint64(hdr[16:24], e.size)
	return hdr, nil
}

// CSRFile is an opened on-disk CSR graph: the decoded CSRGraph plus the
// mapping it aliases. Close releases the mapping; the graph must not be
// used afterwards.
//
// Long-lived holders that hand the graph to concurrent readers (the serve
// layer's epoch snapshots) guard the mapping with the pin count: every
// in-flight reader holds one Pin for as long as it may decode adjacency
// rows through an EdgeBuf cursor, and Close refuses to unmap while pins
// are outstanding. A retire-path bug then surfaces as ErrLiveCursors
// instead of a SIGSEGV on the unmapped pages.
type CSRFile struct {
	g     *CSRGraph
	unmap func() error
	// pins counts live cursor leases; csrFileClosed (negative) marks the
	// file closed so late Pin calls fail instead of racing the unmap.
	pins atomic.Int64
}

// csrFileClosed is the pin-count sentinel marking a closed file. Any
// negative value works; half the range keeps concurrent Unpin underflow
// (itself a bug) from ever wrapping back to a plausible count.
const csrFileClosed = int64(-1) << 40

// ErrLiveCursors is returned by Close while cursor pins are outstanding.
var ErrLiveCursors = errors.New("hin: csr file has live cursors")

// Graph returns the backend view of the file.
func (c *CSRFile) Graph() *CSRGraph { return c.g }

// Pin takes a cursor lease on the mapping: until the matching Unpin, Close
// fails with ErrLiveCursors instead of unmapping under a live EdgeBuf
// cursor. Pin fails once the file is closed. Lock-free; safe for any
// number of concurrent readers.
func (c *CSRFile) Pin() error {
	if c == nil {
		return errors.New("hin: pin of nil csr file")
	}
	for {
		p := c.pins.Load()
		if p < 0 {
			return errors.New("hin: pin of closed csr file")
		}
		if c.pins.CompareAndSwap(p, p+1) {
			return nil
		}
	}
}

// Unpin releases one Pin lease.
func (c *CSRFile) Unpin() {
	if c == nil {
		return
	}
	c.pins.Add(-1)
}

// Pins returns the number of outstanding cursor leases (0 after Close).
func (c *CSRFile) Pins() int64 {
	if c == nil {
		return 0
	}
	if p := c.pins.Load(); p > 0 {
		return p
	}
	return 0
}

// Close releases the underlying mapping. Idempotent. While Pin leases are
// outstanding it returns ErrLiveCursors and leaves the mapping intact, so
// a premature epoch retirement is a recoverable error, not a fault on the
// next row decode.
func (c *CSRFile) Close() error {
	if c == nil || c.unmap == nil {
		return nil
	}
	for !c.pins.CompareAndSwap(0, csrFileClosed) {
		switch p := c.pins.Load(); {
		case p < 0:
			return nil // already closed
		case p > 0:
			return fmt.Errorf("%w: %d outstanding pins", ErrLiveCursors, p)
		}
	}
	u := c.unmap
	c.unmap = nil
	c.g = nil
	return u()
}

type sectionCursor struct {
	data []byte
	pos  int
}

func (c *sectionCursor) next(name string) ([]byte, error) {
	if c.pos+8 > len(c.data) {
		return nil, fmt.Errorf("truncated %s section header at offset %d", name, c.pos)
	}
	l := binary.LittleEndian.Uint64(c.data[c.pos:])
	c.pos += 8
	if l > uint64(len(c.data)-c.pos) {
		return nil, fmt.Errorf("%s section length %d exceeds file", name, l)
	}
	payload := c.data[c.pos : c.pos+int(l)]
	c.pos += int(l)
	return payload, nil
}

// CSRFileOptions tunes OpenCSRFileOpt.
type CSRFileOptions struct {
	// Workers sizes the validation worker pool (0 = GOMAXPROCS). The
	// result — the graph and, for a corrupt file, which error is
	// reported — is identical at any count.
	Workers int
}

// OpenCSRFile maps path and returns the validated graph. On unix the file
// is mmap'd read-only (the adjacency and label columns alias the mapping);
// elsewhere it is read into memory. Every failure mode - short file, bad
// magic, version skew, checksum mismatch, malformed section - returns a
// descriptive error with the mapping already released.
func OpenCSRFile(path string) (*CSRFile, error) {
	return OpenCSRFileOpt(path, CSRFileOptions{})
}

// OpenCSRFileOpt is OpenCSRFile with the checksum and per-section
// validation sweeps spread over a worker pool: the body CRC is folded
// from fixed-size chunks via crc32Combine, and the offset-column and
// adjacency-row scans run as sharded tasks whose first error (by task
// index, i.e. serial validation order) is the one reported.
func OpenCSRFileOpt(path string, opts CSRFileOptions) (*CSRFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size < csrHeaderSize {
		f.Close()
		return nil, fmt.Errorf("hin: csr file %s: truncated: %d bytes, need at least the %d-byte header", path, size, csrHeaderSize)
	}
	data, unmap, err := mmapFile(f, size)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("hin: csr file %s: %w", path, err)
	}
	g, err := parseCSRFile(data, opts.Workers)
	if err != nil {
		unmap() //hin:allow errdrop -- parse failure path: the parse error is the one worth surfacing
		return nil, fmt.Errorf("hin: csr file %s: %w", path, err)
	}
	return &CSRFile{g: g, unmap: unmap}, nil
}

// csrChecksumChunk is the fixed chunk width of the parallel body CRC.
// Boundaries depend only on the body length, so the folded result equals
// the one-pass checksum at any worker count.
const csrChecksumChunk = 4 << 20

// csrChecksum computes the CRC-32C of body, splitting it into fixed
// chunks across workers and folding the per-chunk checksums in chunk
// order with crc32Combine.
func csrChecksum(body []byte, workers int) uint32 {
	chunks := par.Shards(len(body), csrChecksumChunk)
	if chunks <= 1 || par.Workers(workers, chunks) <= 1 {
		return crc32.Checksum(body, castagnoli)
	}
	crcs := make([]uint32, chunks)
	par.Run(workers, chunks, func(_, i int) {
		lo, hi := par.Bounds(i, len(body), csrChecksumChunk)
		crcs[i] = crc32.Checksum(body[lo:hi], castagnoli)
	})
	crc := crcs[0]
	for i := 1; i < chunks; i++ {
		lo, hi := par.Bounds(i, len(body), csrChecksumChunk)
		crc = crc32Combine(crc, crcs[i], int64(hi-lo))
	}
	return crc
}

// csrAdjShardRows is how many adjacency rows one validation task strict-
// checks; boundaries depend only on the entity count.
const csrAdjShardRows = 1 << 16

func parseCSRFile(data []byte, workers int) (*CSRGraph, error) {
	if string(data[0:8]) != csrMagic {
		return nil, fmt.Errorf("bad magic %q, want %q", data[0:8], csrMagic)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != csrVersion {
		return nil, fmt.Errorf("unsupported format version %d, want %d", v, csrVersion)
	}
	if sz := binary.LittleEndian.Uint64(data[16:24]); sz != uint64(len(data)) {
		return nil, fmt.Errorf("header records %d bytes but file has %d (truncated or padded)", sz, len(data))
	}
	want := binary.LittleEndian.Uint32(data[12:16])
	if got := csrChecksum(data[csrHeaderSize:], workers); got != want {
		return nil, fmt.Errorf("checksum mismatch: header %08x, body %08x", want, got)
	}

	cur := &sectionCursor{data: data, pos: csrHeaderSize}
	sj, err := cur.next("schema")
	if err != nil {
		return nil, err
	}
	var sd schemaJSON
	if err := json.Unmarshal(sj, &sd); err != nil {
		return nil, fmt.Errorf("schema section: %w", err)
	}
	schema, err := NewSchema(sd.EntityTypes, sd.LinkTypes)
	if err != nil {
		return nil, fmt.Errorf("schema section: %w", err)
	}

	meta, err := cur.next("meta")
	if err != nil {
		return nil, err
	}
	if len(meta) != 24 {
		return nil, fmt.Errorf("meta section: %d bytes, want 24", len(meta))
	}
	n64 := binary.LittleEndian.Uint64(meta[0:8])
	ltCount := binary.LittleEndian.Uint64(meta[8:16])
	setCount := binary.LittleEndian.Uint64(meta[16:24])
	if n64 > uint64(maxInt32) {
		return nil, fmt.Errorf("meta section: %d entities exceeds the int32 id space", n64)
	}
	n := int(n64)
	if int(ltCount) != schema.NumLinkTypes() {
		return nil, fmt.Errorf("meta section: %d link types but schema declares %d", ltCount, schema.NumLinkTypes())
	}

	// The walk below slices every section, runs the cheap structural
	// checks inline, and defers the O(bytes) scans to tasks. Tasks are
	// appended in serial validation order and the lowest-index error
	// wins, so a corrupt file reports the same error at any worker
	// count. Checks a later stage dereferences through (etype bytes
	// index the schema, rowOff columns bound the row slices) stay
	// inline so the tasks can't fault on garbage.
	var tasks []func() error

	g := &CSRGraph{schema: schema, n: n}
	if g.etype, err = cur.next("etype"); err != nil {
		return nil, err
	}
	if len(g.etype) != n {
		return nil, fmt.Errorf("etype section: %d bytes, want %d", len(g.etype), n)
	}
	for v := 0; v < n; v++ {
		if int(g.etype[v]) >= schema.NumEntityTypes() {
			return nil, fmt.Errorf("etype section: entity %d has unknown type %d", v, g.etype[v])
		}
	}

	if g.labelOff, err = cur.next("labelOff"); err != nil {
		return nil, err
	}
	if g.labelBlob, err = cur.next("labelBlob"); err != nil {
		return nil, err
	}
	tasks = append(tasks, func() error {
		return checkOffsets("labelOff", g.labelOff, n, uint64(len(g.labelBlob)))
	})

	dict, err := cur.next("attrDict")
	if err != nil {
		return nil, err
	}
	if len(dict)%8 != 0 {
		return nil, fmt.Errorf("attrDict section: length %d not a multiple of 8", len(dict))
	}
	g.attrDict = make([]int64, len(dict)/8)
	for i := range g.attrDict {
		g.attrDict[i] = int64(binary.LittleEndian.Uint64(dict[i*8:]))
	}
	if g.attrOff, err = cur.next("attrOff"); err != nil {
		return nil, err
	}
	if g.attrCodes, err = cur.next("attrCodes"); err != nil {
		return nil, err
	}
	if len(g.attrCodes)%4 != 0 {
		return nil, fmt.Errorf("attrCodes section: length %d not a multiple of 4", len(g.attrCodes))
	}
	tasks = append(tasks, func() error {
		return checkOffsets("attrOff", g.attrOff, n, uint64(len(g.attrCodes)/4))
	})
	tasks = append(tasks, func() error {
		for i := 0; i < len(g.attrCodes)/4; i++ {
			if code := binary.LittleEndian.Uint32(g.attrCodes[i*4:]); int(code) >= len(g.attrDict) {
				return fmt.Errorf("attrCodes section: code %d at index %d exceeds dictionary size %d", code, i, len(g.attrDict))
			}
		}
		return nil
	})
	tasks = append(tasks, func() error {
		if len(g.attrOff) != (n+1)*8 {
			return nil // the checkOffsets task reports the length
		}
		for v := 0; v < n; v++ {
			want := len(schema.EntityType(EntityTypeID(g.etype[v])).Attrs)
			if got := g.NumAttrs(EntityID(v)); got != want {
				return fmt.Errorf("attrOff section: entity %d has %d attrs, type %q declares %d",
					v, got, schema.EntityType(EntityTypeID(g.etype[v])).Name, want)
			}
		}
		return nil
	})

	setsPayload, err := cur.next("sets")
	if err != nil {
		return nil, err
	}
	if g.sets, err = parseSetColumns(setsPayload, schema, g.etype, n, setCount); err != nil {
		return nil, err
	}

	// Adjacency: slice and offset-check every direction inline (the row
	// tasks slice dat through rowOff, so the column must be proven
	// sound first), then shard the strict row validation.
	L := schema.NumLinkTypes()
	g.fwd = make([]csrAdj, L)
	g.rev = make([]csrAdj, L)
	type adjPending struct {
		adj    csrAdj
		counts []int64
	}
	pending := make([]adjPending, 0, 2*L)
	for lt := 0; lt < L; lt++ {
		weighted := schema.LinkType(LinkTypeID(lt)).Weighted
		for dir := 0; dir < 2; dir++ {
			name := fmt.Sprintf("link %q fwd", schema.LinkType(LinkTypeID(lt)).Name)
			if dir == 1 {
				name = fmt.Sprintf("link %q rev", schema.LinkType(LinkTypeID(lt)).Name)
			}
			dat, err := cur.next(name + " dat")
			if err != nil {
				return nil, err
			}
			rowOff, err := cur.next(name + " rowOff")
			if err != nil {
				return nil, err
			}
			if err := checkOffsets(name+" rowOff", rowOff, n, uint64(len(dat))); err != nil {
				return nil, err
			}
			p := adjPending{
				adj:    csrAdj{rowOff: rowOff, dat: dat, weighted: weighted},
				counts: make([]int64, par.Shards(n, csrAdjShardRows)),
			}
			pending = append(pending, p)
			slot := len(pending) - 1
			for s := range p.counts {
				s := s
				tasks = append(tasks, func() error {
					lo, hi := par.Bounds(s, n, csrAdjShardRows)
					c := &pending[slot].adj
					var edges int64
					for v := lo; v < hi; v++ {
						deg, err := validateAdjRow(c.row(EntityID(v)), weighted, n)
						if err != nil {
							return fmt.Errorf("%s row %d: %w", name, v, err)
						}
						edges += int64(deg)
					}
					pending[slot].counts[s] = edges
					return nil
				})
			}
		}
	}
	trailing := len(data) - cur.pos

	var fe par.FirstErr
	par.Run(workers, len(tasks), func(_, i int) {
		fe.Set(i, tasks[i]())
	})
	if err := fe.Err(); err != nil {
		return nil, err
	}

	for i := range pending {
		var total int64
		for _, c := range pending[i].counts {
			total += c
		}
		pending[i].adj.count = total
		if i%2 == 0 {
			g.fwd[i/2] = pending[i].adj
		} else {
			g.rev[i/2] = pending[i].adj
		}
	}
	for lt := 0; lt < L; lt++ {
		if g.fwd[lt].count != g.rev[lt].count {
			name := schema.LinkType(LinkTypeID(lt)).Name
			return nil, fmt.Errorf("link %q: forward adjacency has %d edges, reverse %d", name, g.fwd[lt].count, g.rev[lt].count)
		}
	}
	if trailing != 0 {
		return nil, fmt.Errorf("%d trailing bytes after last section", trailing)
	}
	return g, nil
}

// checkOffsets validates an (n+1) x uint64 LE offset column: correct
// length, starts at 0, monotone non-decreasing, ends at end.
func checkOffsets(name string, raw []byte, n int, end uint64) error {
	if len(raw) != (n+1)*8 {
		return fmt.Errorf("%s section: %d bytes, want %d", name, len(raw), (n+1)*8)
	}
	prev := uint64(0)
	if first := binary.LittleEndian.Uint64(raw); first != 0 {
		return fmt.Errorf("%s section: first offset %d, want 0", name, first)
	}
	for v := 1; v <= n; v++ {
		o := binary.LittleEndian.Uint64(raw[v*8:])
		if o < prev {
			return fmt.Errorf("%s section: offset %d at entity %d below predecessor %d", name, o, v, prev)
		}
		prev = o
	}
	if prev != end {
		return fmt.Errorf("%s section: final offset %d, want %d", name, prev, end)
	}
	return nil
}

func parseSetColumns(payload []byte, schema *Schema, etype []byte, n int, count uint64) (map[string]*setCol, error) {
	// Each column takes at least a name length, n+1 offsets and a count.
	if count > uint64(len(payload)/(8*(n+3))) {
		return nil, fmt.Errorf("sets section: %d sets do not fit in %d bytes", count, len(payload))
	}
	sets := make(map[string]*setCol, count)
	pos := 0
	u64 := func() (uint64, error) {
		if pos+8 > len(payload) {
			return 0, errors.New("sets section: truncated")
		}
		v := binary.LittleEndian.Uint64(payload[pos:])
		pos += 8
		return v, nil
	}
	prevName := ""
	for i := uint64(0); i < count; i++ {
		nameLen, err := u64()
		if err != nil {
			return nil, err
		}
		if nameLen > uint64(len(payload)-pos) {
			return nil, fmt.Errorf("sets section: name length %d exceeds section", nameLen)
		}
		name := string(payload[pos : pos+int(nameLen)])
		pos += int(nameLen)
		if i > 0 && name <= prevName {
			return nil, fmt.Errorf("sets section: name %q out of order after %q", name, prevName)
		}
		prevName = name
		declared := false
		for t := 0; t < schema.NumEntityTypes(); t++ {
			if schema.SetAttrIndex(EntityTypeID(t), name) >= 0 {
				declared = true
			}
		}
		if !declared {
			return nil, fmt.Errorf("sets section: set %q not declared by any entity type", name)
		}
		if (n+1)*8 > len(payload)-pos {
			return nil, fmt.Errorf("sets section: set %q offsets truncated", name)
		}
		col := &setCol{off: make([]int64, n+1)}
		for v := 0; v <= n; v++ {
			col.off[v] = int64(binary.LittleEndian.Uint64(payload[pos+v*8:]))
		}
		pos += (n + 1) * 8
		valCount, err := u64()
		if err != nil {
			return nil, err
		}
		if col.off[0] != 0 {
			return nil, fmt.Errorf("sets section: set %q first offset %d, want 0", name, col.off[0])
		}
		for v := 0; v < n; v++ {
			if col.off[v+1] < col.off[v] {
				return nil, fmt.Errorf("sets section: set %q offsets decrease at entity %d", name, v+1)
			}
			if col.off[v+1] > col.off[v] && schema.SetAttrIndex(EntityTypeID(etype[v]), name) < 0 {
				return nil, fmt.Errorf("sets section: entity %d carries set %q its type does not declare", v, name)
			}
		}
		if col.off[n] != int64(valCount) {
			return nil, fmt.Errorf("sets section: set %q final offset %d, want %d values", name, col.off[n], valCount)
		}
		if valCount > uint64(len(payload)-pos)/4 {
			return nil, fmt.Errorf("sets section: set %q values truncated", name)
		}
		col.data = make([]int32, valCount)
		for j := range col.data {
			col.data[j] = int32(binary.LittleEndian.Uint32(payload[pos+j*4:]))
		}
		pos += int(valCount) * 4
		for v := 0; v < n; v++ {
			row := col.data[col.off[v]:col.off[v+1]]
			for j := 1; j < len(row); j++ {
				if row[j] < row[j-1] {
					return nil, fmt.Errorf("sets section: set %q values of entity %d not sorted", name, v)
				}
			}
		}
		sets[name] = col
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("sets section: %d trailing bytes", len(payload)-pos)
	}
	return sets, nil
}
