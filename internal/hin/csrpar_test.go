package hin

// Tests for the parallel CSR load path: the CRC-32C combine underlying
// chunked checksumming, and worker-count determinism of OpenCSRFileOpt
// (both the graph and the error a corrupt file reports).

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/hinpriv/dehin/internal/randx"
)

// fillLCG fills buf with deterministic pseudo-random bytes.
func fillLCG(buf []byte, seed uint64) {
	x := seed*6364136223846793005 + 1442695040888963407
	for i := range buf {
		x = x*6364136223846793005 + 1442695040888963407
		buf[i] = byte(x >> 56)
	}
}

func TestCRC32Combine(t *testing.T) {
	data := make([]byte, 1<<16)
	fillLCG(data, 42)
	whole := crc32.Checksum(data, castagnoli)
	for _, cut := range []int{0, 1, 7, 100, 1 << 12, len(data) - 1, len(data)} {
		a, b := data[:cut], data[cut:]
		got := crc32Combine(crc32.Checksum(a, castagnoli), crc32.Checksum(b, castagnoli), int64(len(b)))
		if got != whole {
			t.Fatalf("cut %d: combined %08x, want %08x", cut, got, whole)
		}
	}
	// Folding many chunks must also agree.
	crc := uint32(0)
	const step = 977
	for lo := 0; lo < len(data); lo += step {
		hi := min(lo+step, len(data))
		crc = crc32Combine(crc, crc32.Checksum(data[lo:hi], castagnoli), int64(hi-lo))
	}
	if crc != whole {
		t.Fatalf("chunk fold %08x, want %08x", crc, whole)
	}
}

func TestCSRChecksumMatchesSerial(t *testing.T) {
	// Larger than two chunks so the parallel path really splits.
	body := make([]byte, 2*csrChecksumChunk+12345)
	fillLCG(body, 7)
	want := crc32.Checksum(body, castagnoli)
	for _, workers := range []int{1, 2, 3, 8, 0} {
		if got := csrChecksum(body, workers); got != want {
			t.Fatalf("workers=%d: checksum %08x, want %08x", workers, got, want)
		}
	}
	if got := csrChecksum(nil, 4); got != 0 {
		t.Fatalf("empty body checksum %08x, want 0", got)
	}
}

// wideRichGraph builds a graph with more entities than one adjacency
// validation shard (csrAdjShardRows), so the parallel open path really
// fans out.
func wideRichGraph(t *testing.T, seed uint64) *Graph {
	t.Helper()
	s := userSchema(t)
	rng := randx.New(seed)
	n := csrAdjShardRows + 300
	b := NewBuilder(s)
	for i := 0; i < n; i++ {
		b.AddEntity(0, fmt.Sprintf("u%06d", i), int64(1900+rng.Intn(100)), int64(rng.Intn(3)))
	}
	follow, mention := s.MustLinkTypeID("follow"), s.MustLinkTypeID("mention")
	for i := 0; i < 4*n; i++ {
		f := EntityID(rng.Intn(n))
		to := EntityID(rng.Intn(n))
		if f == to {
			continue
		}
		if rng.Intn(2) == 0 {
			if err := b.AddEdge(follow, f, to, 1); err != nil {
				t.Fatal(err)
			}
		} else if err := b.AddEdge(mention, f, to, int32(rng.IntRange(1, 9))); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOpenCSRFileOptWorkerDeterminism(t *testing.T) {
	g := wideRichGraph(t, 3)
	path := filepath.Join(t.TempDir(), "wide.hincsr")
	if err := WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, runtime.NumCPU(), 0} {
		cf, err := OpenCSRFileOpt(path, CSRFileOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertBackendsEqual(t, g, cf.Graph())
		cf.Close()
	}
}

// Satellite (d): the parallel loader must report exactly the error the
// serial loader reports, for every corruption in the failure-mode
// corpus - FirstErr keeps the lowest task index, which is serial
// validation order.
func TestOpenCSRFileOptErrorsMatchSerial(t *testing.T) {
	g := wideRichGraph(t, 9)
	valid := filepath.Join(t.TempDir(), "valid.hincsr")
	if err := WriteCSRFile(valid, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		repair bool
		mutate func([]byte) []byte
	}{
		{"short file", false, func(d []byte) []byte { return d[:10] }},
		{"bad magic", false, func(d []byte) []byte { copy(d, "NOTACSR!"); return d }},
		{"size mismatch", false, func(d []byte) []byte { return d[:len(d)-5] }},
		{"checksum mismatch", false, func(d []byte) []byte { d[len(d)-1] ^= 0xff; return d }},
		{"trailing bytes", true, func(d []byte) []byte { return append(d, 0) }},
		{"schema garbage", true, func(d []byte) []byte { d[csrHeaderSize+8] = '!'; return d }},
		{"etype unknown", true, func(d []byte) []byte {
			// The etype section starts after schema and meta; smash a
			// byte deep inside it (entity csrAdjShardRows+1, so the
			// failing row is beyond the first shard).
			cur := &sectionCursor{data: d, pos: csrHeaderSize}
			cur.next("schema")
			cur.next("meta")
			et, _ := cur.next("etype")
			et[csrAdjShardRows+1] = 0xee
			return d
		}},
		{"adjacency corruption tail", true, func(d []byte) []byte { d[len(d)-9] ^= 0x55; return d }},
		{"adjacency corruption head", true, func(d []byte) []byte {
			// Corrupt the first adjacency dat section instead of the
			// last: 0xff as a row's first byte inflates its degree
			// uvarint past the entity count (or truncates it), so the
			// first non-empty row must fail strict validation.
			cur := &sectionCursor{data: d, pos: csrHeaderSize}
			for _, s := range []string{"schema", "meta", "etype", "labelOff", "labelBlob", "attrDict", "attrOff", "attrCodes", "sets"} {
				cur.next(s)
			}
			dat, _ := cur.next("fwd dat")
			dat[0] = 0xff
			return d
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mutated := c.mutate(append([]byte(nil), data...))
			if c.repair {
				restampCSR(mutated)
			}
			path := filepath.Join(t.TempDir(), "corrupt.hincsr")
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			var msgs []string
			for _, workers := range []int{1, 4, 0} {
				cf, err := OpenCSRFileOpt(path, CSRFileOptions{Workers: workers})
				if err == nil {
					cf.Close()
					t.Fatalf("workers=%d: open succeeded on corrupt input", workers)
				}
				msgs = append(msgs, err.Error())
			}
			for i := 1; i < len(msgs); i++ {
				if msgs[i] != msgs[0] {
					t.Fatalf("error differs across worker counts:\n  serial:   %s\n  parallel: %s", msgs[0], msgs[i])
				}
			}
		})
	}
}
