// Paperscale benchmarks: the paper's real 2,320,895-user / >60M-link
// scale, end to end on the compact CSR substrate. Each stage is one
// BenchmarkPaperscale* entry - generate, persist, load, attack, risk -
// reporting its wall time as ns/op and the process RSS high-water mark
// after the stage as rss_mb. The stages share one pipeline (later stages
// reuse earlier artifacts; running one stage alone computes its
// prerequisites untimed), so
//
//	PAPERSCALE=1 go test -run '^$' -bench Paperscale -benchtime 1x -v .
//
// reproduces the EXPERIMENTS.md "paper scale" table in one pass. Without
// PAPERSCALE set the benchmarks skip: they need ~14 GB of RAM and several
// minutes, which has no place in the default bench sweep. The committed
// numbers live in BENCH_5.json; the benchdiff gate tolerates the entries
// being absent from uninstrumented runs.
//
// TestPaperscaleSmoke is the permanently-on miniature: the same
// generate -> persist -> load -> attack -> risk pipeline at
// 3000 users, asserting backend equivalence at every step. `make verify`
// runs it unless SKIP_PAPERSCALE=1.
package bench

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/hinpriv/dehin/internal/anonymize"
	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/risk"
	"github.com/hinpriv/dehin/internal/tqq"
)

// paperscaleUsers is the paper's reported t.qq crawl size (Section 6:
// 2,320,895 users). With the calibrated generator defaults this yields
// >60M typed links, matching the reported scale.
const paperscaleUsers = 2320895

func paperscaleGate(b *testing.B) {
	b.Helper()
	if os.Getenv("PAPERSCALE") == "" {
		b.Skip("set PAPERSCALE=1 to run the 2.3M-user paperscale pipeline")
	}
}

// rssMB reads the process's current resident set size from
// /proc/self/status, in MiB. Returns 0 when the file or field is
// unavailable (non-Linux), so the metric degrades to absent rather than
// failing the run.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, err := strconv.ParseInt(fields[0], 10, 64)
				if err == nil {
					return float64(kb) / 1024
				}
			}
		}
	}
	return 0
}

// psState carries the paperscale pipeline's shared artifacts across the
// stage benchmarks.
var psState struct {
	mu   sync.Mutex
	ds   *tqq.Dataset
	path string // CSR file, persisted once
	file *hin.CSRFile
}

func psConfig() tqq.Config {
	cfg := tqq.DefaultConfig(paperscaleUsers, 1)
	cfg.Communities = []tqq.CommunitySpec{{Size: 1000, Density: 0.01}}
	return cfg
}

// psDataset returns the generated 2.3M-user dataset, generating it
// (untimed from the caller's perspective unless the caller is
// BenchmarkPaperscaleGenerate itself) at most once per process.
func psDataset(b *testing.B) *tqq.Dataset {
	b.Helper()
	psState.mu.Lock()
	defer psState.mu.Unlock()
	if psState.ds == nil {
		ds, err := tqq.Generate(psConfig())
		if err != nil {
			b.Fatal(err)
		}
		psState.ds = ds
	}
	return psState.ds
}

// psFile returns the persisted-and-reloaded CSR graph, building the file
// at most once per process.
func psFile(b *testing.B) *hin.CSRFile {
	ds := psDataset(b)
	psState.mu.Lock()
	defer psState.mu.Unlock()
	if psState.file == nil {
		path := filepath.Join(b.TempDir(), "paperscale.hincsr")
		if err := hin.WriteCSRFile(path, ds.Graph); err != nil {
			b.Fatal(err)
		}
		cf, err := hin.OpenCSRFile(path)
		if err != nil {
			b.Fatal(err)
		}
		psState.path, psState.file = path, cf
	}
	return psState.file
}

// BenchmarkPaperscaleGenerate synthesizes the full 2,320,895-user
// auxiliary network with one planted 1000-user community.
func BenchmarkPaperscaleGenerate(b *testing.B) {
	paperscaleGate(b)
	for i := 0; i < b.N; i++ {
		ds, err := tqq.Generate(psConfig())
		if err != nil {
			b.Fatal(err)
		}
		psState.mu.Lock()
		psState.ds = ds
		psState.mu.Unlock()
		if i == 0 {
			b.ReportMetric(float64(ds.Graph.NumEntities()), "users")
			b.ReportMetric(float64(ds.Graph.NumEdgesTotal()), "edges")
		}
	}
	b.ReportMetric(rssMB(), "rss_mb")
}

// BenchmarkPaperscalePersist writes the in-memory graph in the on-disk
// CSR format (varint adjacency, interned attributes, checksummed
// sections).
func BenchmarkPaperscalePersist(b *testing.B) {
	paperscaleGate(b)
	ds := psDataset(b)
	dir := b.TempDir()
	b.ResetTimer()
	var path string
	for i := 0; i < b.N; i++ {
		path = filepath.Join(dir, "persist.hincsr")
		if err := hin.WriteCSRFile(path, ds.Graph); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st, err := os.Stat(path); err == nil {
		b.ReportMetric(float64(st.Size())/(1<<20), "file_mb")
	}
	b.ReportMetric(rssMB(), "rss_mb")
	os.Remove(path)
}

// BenchmarkPaperscaleLoad mmaps and fully validates the persisted file
// (magic, checksum, and a strict decode of all >60M adjacency entries -
// the price of a trusting zero-alloc hot path).
func BenchmarkPaperscaleLoad(b *testing.B) {
	paperscaleGate(b)
	psFile(b) // ensure the file exists; also caches the handle for later stages
	psState.mu.Lock()
	path := psState.path
	psState.mu.Unlock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf, err := hin.OpenCSRFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if cf.Graph().NumEntities() != paperscaleUsers {
			b.Fatalf("loaded %d entities", cf.Graph().NumEntities())
		}
		if err := cf.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(rssMB(), "rss_mb")
}

// BenchmarkPaperscaleAttack runs the full DeHIN attack - profile index
// over all 2.3M auxiliary users, degree signature, then de-anonymizing
// every user of a released 1000-user community target - with the
// auxiliary network on the loaded CSR backend.
func BenchmarkPaperscaleAttack(b *testing.B) {
	paperscaleGate(b)
	ds := psDataset(b)
	aux := psFile(b).Graph()
	tgt, err := tqq.CommunityTarget(ds, 0, randx.New(11))
	if err != nil {
		b.Fatal(err)
	}
	anon, err := anonymize.RandomizeIDs(tgt.Graph, 12)
	if err != nil {
		b.Fatal(err)
	}
	truth := make([]hin.EntityID, len(anon.ToOrig))
	for i, t0 := range anon.ToOrig {
		truth[i] = tgt.Orig[t0]
	}
	target := hin.FromGraph(anon.Graph)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := dehin.NewAttack(aux, dehin.Config{
			MaxDistance: 2,
			Profile:     dehin.TQQProfile(),
			UseIndex:    true,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := a.Run(target, truth)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Precision*100, "precision_pct")
			b.ReportMetric(res.ReductionRate*100, "reduction_pct")
		}
	}
	b.StopTimer()
	b.ReportMetric(rssMB(), "rss_mb")
}

// BenchmarkPaperscaleRisk computes the dataset privacy risk (distance 1,
// all four link types, tag-count attribute - the Section 6.1 setting)
// over the CSR backend, decoding all >60M adjacency entries per pass.
func BenchmarkPaperscaleRisk(b *testing.B) {
	paperscaleGate(b)
	g := psFile(b).Graph()
	s := g.Schema()
	lts := make([]hin.LinkTypeID, s.NumLinkTypes())
	for i := range lts {
		lts[i] = hin.LinkTypeID(i)
	}
	cfg := risk.SignatureConfig{
		MaxDistance: 1,
		LinkTypes:   lts,
		EntityAttrs: []int{tqq.AttrNumTags},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := risk.NetworkRisk(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r*100, "risk_pct")
		}
	}
	b.StopTimer()
	b.ReportMetric(rssMB(), "rss_mb")
}

// TestPaperscaleSmoke is the scaled-down always-on pipeline: generate,
// persist, reload, attack, and measure risk - asserting at each step that
// the compact backend agrees with the in-memory one. `make verify` runs
// it unless SKIP_PAPERSCALE=1.
func TestPaperscaleSmoke(t *testing.T) {
	cfg := tqq.DefaultConfig(3000, 21)
	cfg.Communities = []tqq.CommunitySpec{{Size: 200, Density: 0.01}}
	ds, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph

	path := filepath.Join(t.TempDir(), "smoke.hincsr")
	if err := hin.WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}

	cf, err := hin.OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	aux := cf.Graph()
	if aux.NumEntities() != g.NumEntities() || aux.NumEdgesTotal() != g.NumEdgesTotal() {
		t.Fatalf("reloaded %d entities / %d edges, want %d / %d",
			aux.NumEntities(), aux.NumEdgesTotal(), g.NumEntities(), g.NumEdgesTotal())
	}

	// Attack a released community target on both backends; outcomes must
	// be identical.
	tgt, err := tqq.CommunityTarget(ds, 0, randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	anon, err := anonymize.RandomizeIDs(tgt.Graph, 6)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]hin.EntityID, len(anon.ToOrig))
	for i, t0 := range anon.ToOrig {
		truth[i] = tgt.Orig[t0]
	}
	attCfg := dehin.Config{MaxDistance: 2, Profile: dehin.TQQProfile(), UseIndex: true}
	aCSR, err := dehin.NewAttack(aux, attCfg)
	if err != nil {
		t.Fatal(err)
	}
	aMem, err := dehin.NewAttack(g, attCfg)
	if err != nil {
		t.Fatal(err)
	}
	rCSR, err := aCSR.Run(hin.FromGraph(anon.Graph), truth)
	if err != nil {
		t.Fatal(err)
	}
	rMem, err := aMem.Run(anon.Graph, truth)
	if err != nil {
		t.Fatal(err)
	}
	if rCSR.Precision != rMem.Precision || rCSR.ReductionRate != rMem.ReductionRate {
		t.Fatalf("attack fingerprints differ: csr %v/%v, mem %v/%v",
			rCSR.Precision, rCSR.ReductionRate, rMem.Precision, rMem.ReductionRate)
	}

	// Risk must agree across backends too.
	lts := make([]hin.LinkTypeID, g.Schema().NumLinkTypes())
	for i := range lts {
		lts[i] = hin.LinkTypeID(i)
	}
	rk := risk.SignatureConfig{MaxDistance: 2, LinkTypes: lts, EntityAttrs: []int{tqq.AttrNumTags}}
	riskCSR, err := risk.NetworkRisk(aux, rk)
	if err != nil {
		t.Fatal(err)
	}
	riskMem, err := risk.NetworkRisk(g, rk)
	if err != nil {
		t.Fatal(err)
	}
	if riskCSR != riskMem {
		t.Fatalf("risk differs across backends: csr %v, mem %v", riskCSR, riskMem)
	}
}

// BenchmarkDeanonymizeSingleCSR is BenchmarkDeanonymizeSingle with both
// graphs on the compact CSR backend: one steady-state distance-2 query
// decoding varint adjacency rows through the pooled frame cursors.
// allocs/op must stay 0 (the deterministic twin lives in internal/dehin's
// TestDeanonymizeSteadyStateZeroAllocCSR).
func BenchmarkDeanonymizeSingleCSR(b *testing.B) {
	w := bench(b)
	targets, err := w.Targets(len(w.Params.Densities) - 1)
	if err != nil {
		b.Fatal(err)
	}
	tg := hin.FromGraph(targets[0].Graph)
	aux := hin.FromGraph(w.Dataset.Graph)
	a, err := dehin.NewAttack(aux, dehin.Config{
		MaxDistance: 2,
		Profile:     dehin.TQQProfile(),
		UseIndex:    true,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := tg.NumEntities()
	var dst []hin.EntityID
	for tv := 0; tv < n; tv++ { // warm the pooled scratch past its high-water mark
		dst = a.DeanonymizeAppend(dst[:0], tg, hin.EntityID(tv))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = a.DeanonymizeAppend(dst[:0], tg, hin.EntityID(i%n))
	}
}
