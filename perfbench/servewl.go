package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/risk"
	"github.com/hinpriv/dehin/internal/serve"
	"github.com/hinpriv/dehin/internal/tqq"
)

// Load shapes. serve_read measures read latency at operatingRate for the
// whole run; its traced run also climbs the ladder. serve_mixed reads at
// mixedReadRate beside a closed loop of attacks, in rounds that each
// open with a reload.
var ladder = []float64{4000, 6000, 8000, 10000, 12000, 13000, 14000, 15000, 16000, 17000, 18000, 19000, 20000, 22000, 24000}

// rungDur is how long each ladder rung above the operating rung runs;
// p99Window is the window windowP99 takes each p99 over.
const (
	rungDur   = time.Second
	p99Window = 250 * time.Millisecond
)

const (
	operatingRate  = 4000
	mixedReadRate  = 1000
	reloadInterval = 4 * time.Second
	attackThink    = time.Millisecond
	snippetPool    = 2000 // the attack p99 rests on the costliest 1%: 20 snippets, not 4
	loadConns      = 2    // never more than nproc on the 2-core reference box
	replayReads    = 2000
	replayAttacks  = 100
	traceEvery     = 8 // traced runs record a span for every 8th request
)

// Wire types of POST /v1/dehin, as internal/serve decodes them.
type snippetEntity struct {
	Type  string  `json:"type"`
	Attrs []int64 `json:"attrs"`
}

type snippetLink struct {
	Type     string `json:"type"`
	From     int    `json:"from"`
	To       int    `json:"to"`
	Strength int32  `json:"strength,omitempty"`
}

type snippetBody struct {
	Target   int             `json:"target"`
	Entities []snippetEntity `json:"entities"`
	Links    []snippetLink   `json:"links"`
}

// snippet is one /v1/dehin request: the attacker's 1-hop view of a user
// of an anonymized released community, and the oracle's answer.
type snippet struct {
	body  []byte
	wire  snippetBody
	truth hin.EntityID
	want  []hin.EntityID
}

// egoNet cuts u's 1-hop ego-net from a released graph: every link of
// every type into or out of u. u is entity 0, its neighbors follow,
// labels are left out.
func egoNet(g *hin.Graph, u hin.EntityID) snippetBody {
	s := g.Schema()
	b := snippetBody{}
	ids := map[hin.EntityID]int{}
	add := func(v hin.EntityID) int {
		if i, ok := ids[v]; ok {
			return i
		}
		ids[v] = len(b.Entities)
		b.Entities = append(b.Entities, snippetEntity{Type: s.EntityType(g.EntityType(v)).Name, Attrs: g.Attrs(v)})
		return ids[v]
	}
	add(u)
	for lt := hin.LinkTypeID(0); int(lt) < s.NumLinkTypes(); lt++ {
		name := s.LinkType(lt).Name
		tos, ws := g.OutEdges(lt, u)
		for i, to := range tos {
			b.Links = append(b.Links, snippetLink{Type: name, From: 0, To: add(to), Strength: ws[i]})
		}
		froms, ws := g.InEdges(lt, u)
		for i, from := range froms {
			b.Links = append(b.Links, snippetLink{Type: name, From: add(from), To: 0, Strength: ws[i]})
		}
	}
	return b
}

// snippetGraph builds a posted snippet with hin.Builder, as the daemon
// does for every /v1/dehin request.
func snippetGraph(s *hin.Schema, b snippetBody) (*hin.Graph, error) {
	bl := hin.NewBuilder(s)
	for i, e := range b.Entities {
		t, ok := s.EntityTypeID(e.Type)
		if !ok {
			return nil, fmt.Errorf("unknown entity type %q", e.Type)
		}
		bl.AddEntity(t, fmt.Sprintf("t%d", i), e.Attrs...)
	}
	for _, l := range b.Links {
		lt, ok := s.LinkTypeID(l.Type)
		if !ok {
			return nil, fmt.Errorf("unknown link type %q", l.Type)
		}
		w := l.Strength
		if w == 0 {
			w = 1
		}
		if err := bl.AddEdge(lt, hin.EntityID(l.From), hin.EntityID(l.To), w); err != nil {
			return nil, err
		}
	}
	return bl.Build()
}

// attackConfig is the daemon's /v1/dehin attack.
func attackConfig(g hin.GraphBackend) dehin.Config {
	return dehin.Config{MaxDistance: serveAttackDist, LinkTypes: allLinkTypes(g.Schema()), Profile: dehin.TQQProfile(), UseIndex: true}
}

// snippetSet is the serve_mixed request pool with its oracle answers and
// the in-process timings of the daemon's per-request steps.
type snippetSet struct {
	snips            []snippet
	unique           int
	releaseS, indexS float64
	buildUS, queryUS []float64
}

// makeSnippets releases the fixture's planted communities, cuts
// snippetPool ego-nets from them - from users drawn at random, skipping
// the few (about 3.5%) whose ego-net exceeds what the daemon accepts -
// and answers each with dehin.Attack.Deanonymize on the served file.
func makeSnippets(f *fixture, seed uint64, rec *recorder) (*snippetSet, error) {
	ss := &snippetSet{}
	st := rec.begin(rec.root, "anonymize.release", true)
	rels := make([]release, pipelineCommunities)
	for ci := range rels {
		var err error
		if rels[ci], err = releaseCommunity(f.ds, ci, seed); err != nil {
			return nil, err
		}
	}
	ss.releaseS = seconds(st.end())

	st = rec.begin(rec.root, "dehin.index", true)
	atk, err := dehin.NewAttack(f.g, attackConfig(f.g))
	if err != nil {
		return nil, err
	}
	ss.indexS = seconds(st.end())

	rng := randx.New(seed).Split(4242)
	schema := f.g.Schema()
	orc := rec.begin(rec.root, "dehin.oracle", false)
	defer orc.end()
	for i := 0; len(ss.snips) < snippetPool; i++ {
		r := rels[i%len(rels)]
		u := hin.EntityID(rng.Intn(r.graph.NumEntities()))
		sn := snippet{wire: egoNet(r.graph, u), truth: r.truth[u]}
		if len(sn.wire.Entities) > maxSnippetEntities || len(sn.wire.Links) > maxSnippetLinks {
			// A few members link to most of their community; the
			// daemon refuses their ego-nets, so draw another user.
			continue
		}
		if sn.body, err = json.Marshal(sn.wire); err != nil {
			return nil, err
		}
		st = rec.begin(orc.sp, "hin.snippet_build", true)
		g, err := snippetGraph(schema, sn.wire)
		ss.buildUS = append(ss.buildUS, micros(st.end()))
		if err != nil {
			return nil, err
		}
		st = rec.begin(orc.sp, "dehin.query", true)
		sn.want = append([]hin.EntityID(nil), atk.Deanonymize(g, 0)...)
		ss.queryUS = append(ss.queryUS, micros(st.end()))
		if len(sn.want) == 1 && sn.want[0] == sn.truth {
			ss.unique++
		}
		ss.snips = append(ss.snips, sn)
	}
	var sizes, links []float64
	for _, sn := range ss.snips {
		sizes = append(sizes, float64(len(sn.wire.Entities)))
		links = append(links, float64(len(sn.wire.Links)))
	}
	fmt.Fprintf(os.Stderr, "snippets: %d, entities median %.0f p99 %.0f max %.0f, links max %.0f, %d uniquely re-identified; query median %.1f us\n",
		len(ss.snips), median(sizes), quantile(sizes, 0.99), quantile(sizes, 1), quantile(links, 1), ss.unique, median(ss.queryUS))
	return ss, nil
}

// newConns opens the load connections, each with its own seeded read mix.
func newConns(d *daemon, f *fixture, snips []snippet, rec *recorder) ([]*conn, []*readMix) {
	var cs []*conn
	var ms []*readMix
	for i := 0; i < loadConns; i++ {
		cs = append(cs, &conn{client: newClient(), base: d.base, f: f, snips: snips, rec: rec})
		ms = append(ms, newReadMix(f, i))
	}
	return cs, ms
}

// rung runs the open loop at rate (split evenly over conns) for dur and
// returns every sample, in order of due time.
func rung(cs []*conn, ms []*readMix, rate float64, dur time.Duration) []sample {
	per := rate / float64(len(cs))
	interval := time.Duration(float64(time.Second) / per)
	start := time.Now().Add(2 * time.Millisecond)
	out := make([][]sample, len(cs))
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = cs[i].openLoop(ms[i], per, start, time.Duration(i)*interval/time.Duration(len(cs)), dur)
		}(i)
	}
	wg.Wait()
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	sortByDue(all)
	return all
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// collect folds the connections' request counts and failures into oc.
func collect(oc *outcome, cs []*conn) {
	for _, c := range cs {
		oc.attempted += int64(len(c.samples))
		oc.failed += int64(c.failed)
		oc.problems = append(oc.problems, c.problems...)
	}
}

func startServe(o options, oc *outcome, rec *recorder) (*fixture, *daemon, error) {
	runtime.GOMAXPROCS(runtime.NumCPU() + loadConns)
	f, err := newFixture(o.seed, o.workdir, rec)
	if err != nil {
		return nil, nil, err
	}
	args := daemonArgs(f.path)
	if o.traced {
		args = append(args, "-runtime-metrics", "100ms")
	}
	d, setup, err := setupDaemon(o.daemon, args)
	if err != nil {
		f.close()
		return nil, nil, err
	}
	oc.e2e["setup_s"] = setup
	return f, d, nil
}

func runServeRead(o options) (*outcome, error) {
	oc := newOutcome()
	rec := newRecorder(o.traced)
	f, d, err := startServe(o, oc, rec)
	if err != nil {
		return nil, err
	}
	defer f.close()
	defer d.stop()
	ov := f.oracleValues()
	oc.oracle = ov
	checkRecorded(oc, o.workload, o.seed, ov)
	f.dropDataset()
	cs, ms := newConns(d, f, nil, rec)

	if o.traced {
		base := rung(cs, ms, operatingRate, o.seconds/4)
		oc.layers["serve.read_p99_us"] = windowP99(base)
		oc.layers["loadgen.knee_qps"] = climb(cs, ms, base)
		for _, c := range cs {
			c.traced = true
		}
		traced := rung(cs, ms, operatingRate, o.seconds/4)
		p50 := median(latencies(traced, kindRisk, kindTopK, kindSnapshot))
		oc.layers["trace_overhead_pct"] = 100 * (p50/median(latencies(base, kindRisk, kindTopK, kindSnapshot)) - 1)
		if err := serveLayers(oc, f, d, traced, nil, rec, o.workdir, "serve_read"); err != nil {
			return nil, err
		}
		collect(oc, cs)
		return oc, nil
	}

	op := rung(cs, ms, operatingRate, o.seconds)
	oc.e2e["read_p50_us"] = median(latencies(op, kindRisk, kindTopK, kindSnapshot))
	if oc.e2e["peak_rss_mb"], err = d.peakRSS(); err != nil {
		return nil, err
	}
	collect(oc, cs)
	return oc, nil
}

// climb runs the ladder upward from the operating rung, whose samples it
// is given, and returns the knee. A rung passes when its windowed p99 is
// within kneeLimitUS, the generator does not fall behind, and
// every answer checked out. A failing rung can be a stall of the shared
// box; two failing in a row mean the rate is past capacity, and the knee
// is the highest passing rung below them.
//
// The traced run reports the knee as loadgen.knee_qps: between runs of
// the same code on the reference box it ranged from 4k to 22k req/s, too
// wide to gate as read_knee_qps. With two connections and no pipelining
// the open loop cannot send faster than two requests per round trip, so
// the knee follows the loopback round trip as much as the daemon.
func climb(cs []*conn, ms []*readMix, op []sample) float64 {
	knee, fails := 0.0, 0
	for _, rate := range ladder {
		ss := op
		if rate != operatingRate {
			ss = rung(cs, ms, rate, rungDur)
		}
		rl := latencies(ss, kindRisk, kindTopK, kindSnapshot)
		p99 := windowP99(ss)
		ok := p99 <= kneeLimitUS && !lateGrows(ss) && allOK(ss)
		fmt.Fprintf(os.Stderr, "rung %6.0f req/s: %6d requests, p50 %7.1f us, p99 %8.1f us (whole rung %8.1f), late p99 %8.1f us, pass %v\n",
			rate, len(ss), median(rl), p99, quantile(rl, 0.99), quantile(lateness(ss), 0.99), ok)
		if !ok {
			if fails++; fails == 2 {
				break
			}
			continue
		}
		knee, fails = rate, 0
	}
	return knee
}

// windowP99 is the median of the read p99s of the quarter-second windows
// of a rung. The reference box's vCPUs are descheduled several times a
// second for one to twenty milliseconds (an idle nanosleep loop shows
// it), so the p99 of a whole rung measures the host's worst stalls. The
// median window ignores stalls that spoil fewer than half the windows,
// but moves when a tail - GC pauses, periodic work, a backlog - shows in
// most of them. A window needs 1000 reads, ten beyond its p99; with none
// that full, the p99 of all the reads stands.
func windowP99(ss []sample) float64 {
	if len(ss) == 0 {
		return 0
	}
	t0 := ss[0].due
	for _, s := range ss {
		if s.due.Before(t0) {
			t0 = s.due
		}
	}
	byWindow := map[int][]sample{}
	for _, s := range ss {
		w := int(s.due.Sub(t0) / p99Window)
		byWindow[w] = append(byWindow[w], s)
	}
	var p99s []float64
	for _, ws := range byWindow {
		if lat := latencies(ws, kindRisk, kindTopK, kindSnapshot); len(lat) >= 1000 {
			p99s = append(p99s, quantile(lat, 0.99))
		}
	}
	if len(p99s) == 0 {
		return quantile(latencies(ss, kindRisk, kindTopK, kindSnapshot), 0.99)
	}
	return median(p99s)
}

func allOK(ss []sample) bool {
	for _, s := range ss {
		if !s.ok {
			return false
		}
	}
	return true
}

// mixedRound is one reloadInterval of serve_mixed. The first connection
// reads on an open loop throughout. The second starts with a reload of
// the same file, then runs a closed loop of attacks - each answer
// followed by attackThink before the next request - until the round
// ends. It returns the samples of each connection.
func mixedRound(cs []*conn, ms []*readMix, snips []snippet, next *int) (reads, writes []sample) {
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = cs[0].openLoop(ms[0], mixedReadRate, start, 0, reloadInterval)
	}()
	c := cs[1]
	first := len(c.samples)
	c.do(request{kind: kindReload, method: "POST", path: "/v1/reload"}, time.Now())
	for time.Since(start) < reloadInterval {
		*next++
		i := *next % len(snips)
		c.do(request{kind: kindDehin, method: "POST", path: "/v1/dehin", body: snips[i].body, snip: i}, time.Now())
		sleepPrecise(attackThink)
	}
	wg.Wait()
	return reads, c.samples[first:]
}

// mixedRounds runs n rounds and reports, for each of serve_mixed's
// end-to-end metrics, the median over the rounds: a burst of host noise
// that spoils one round does not move it, a regression that shows in most
// rounds does.
func mixedRounds(cs []*conn, ms []*readMix, snips []snippet, next *int, n int) (m map[string]float64, reads, writes []sample) {
	per := map[string][]float64{}
	for i := 0; i < n; i++ {
		r, w := mixedRound(cs, ms, snips, next)
		reads, writes = append(reads, r...), append(writes, w...)
		rl, al := latencies(r, kindRisk, kindTopK, kindSnapshot), latencies(w, kindDehin)
		per["read_p50_us"] = append(per["read_p50_us"], median(rl))
		per["read_p99_us"] = append(per["read_p99_us"], quantile(rl, 0.99))
		per["attack_p50_ms"] = append(per["attack_p50_ms"], median(al)/1e3)
		per["attack_p99_ms"] = append(per["attack_p99_ms"], quantile(al, 0.99)/1e3)
		for _, s := range w {
			if s.kind == kindReload && s.ok {
				per["reload_s"] = append(per["reload_s"], seconds(s.latency()))
			}
		}
	}
	m = map[string]float64{}
	for k, v := range per {
		m[k] = median(v)
	}
	fmt.Fprintf(os.Stderr, "serve_mixed rounds: %v\n", per)
	return m, reads, writes
}

func runServeMixed(o options) (*outcome, error) {
	oc := newOutcome()
	rec := newRecorder(o.traced)
	f, d, err := startServe(o, oc, rec)
	if err != nil {
		return nil, err
	}
	defer f.close()
	defer d.stop()
	ss, err := makeSnippets(f, o.seed, rec)
	if err != nil {
		return nil, err
	}
	f.dropDataset()
	ov := f.oracleValues()
	ov.Unique = ss.unique
	oc.oracle = ov
	checkRecorded(oc, o.workload, o.seed, ov)
	cs, ms := newConns(d, f, ss.snips, rec)
	next := 0

	rounds := int(o.seconds / reloadInterval)
	if o.traced {
		base, _, _ := mixedRounds(cs, ms, ss.snips, &next, max(rounds/2, 1))
		before, err := d.scrape()
		if err != nil {
			return nil, err
		}
		for _, c := range cs {
			c.traced = true
		}
		traced, reads, _ := mixedRounds(cs, ms, ss.snips, &next, max(rounds/2, 1))
		after, err := d.scrape()
		if err != nil {
			return nil, err
		}
		oc.layers["trace_overhead_pct"] = 100 * (traced["attack_p50_ms"]/base["attack_p50_ms"] - 1)
		oc.layers["serve.reload_read_p50_us"] = base["read_p50_us"]
		oc.layers["serve.reload_read_p99_us"] = base["read_p99_us"]
		oc.layers["serve.attack_p99_ms"] = base["attack_p99_ms"]
		delta := func(series string) float64 { return after[series] - before[series] }
		oc.layers["serve.reloads"] = delta("serve_reloads_total")
		oc.layers["serve.attack_rejected"] = delta("serve_attack_rejected_total")
		dehinLayers(oc.layers, delta)
		oc.layers["anonymize.release_s"] = ss.releaseS
		oc.layers["hin.snippet_build_us"] = median(ss.buildUS)
		oc.layers["dehin.query_us"] = median(ss.queryUS)
		if err := serveLayers(oc, f, d, reads, ss, rec, o.workdir, "serve_mixed"); err != nil {
			return nil, err
		}
		oc.layers["serve.reload_residual_s"] = base["reload_s"] - (oc.layers["hin.load_s"] + oc.layers["risk.grid_s"] + oc.layers["dehin.index_s"])
		collect(oc, cs)
		return oc, nil
	}

	// The read figures and the attack p99 are reported per layer (see
	// the catalog): on the reference box the host sets them.
	m, _, _ := mixedRounds(cs, ms, ss.snips, &next, max(rounds, 1))
	oc.e2e["attack_p50_ms"], oc.e2e["reload_s"] = m["attack_p50_ms"], m["reload_s"]
	if oc.e2e["peak_rss_mb"], err = d.peakRSS(); err != nil {
		return nil, err
	}
	collect(oc, cs)
	return oc, nil
}

// serveLayers fills the per-layer metrics both serve workloads share: the
// fixture's in-process set-up steps against the daemon's setup_s, the
// client's httptrace phases, generator lateness, the daemon's runtime
// metrics, and handler times from replaying the run's own requests
// through serve.Server.Handler in this process.
func serveLayers(oc *outcome, f *fixture, d *daemon, reads []sample, ss *snippetSet, rec *recorder, workdir, name string) error {
	L := oc.layers
	L["tqq.generate_s"] = f.genS
	L["tqq.edges"] = float64(f.g.NumEdgesTotal())
	L["hin.persist_s"] = f.persistS
	if st, err := os.Stat(f.path); err == nil {
		L["hin.file_bytes_per_link"] = float64(st.Size()) / float64(f.g.NumEdgesTotal())
	}

	// The daemon's set-up steps, again in this process.
	reg := obs.New()
	st := rec.begin(rec.root, "hin.load", true)
	cf, err := hin.OpenCSRFile(f.path)
	if err != nil {
		return err
	}
	defer cf.Close()
	L["hin.load_s"] = seconds(st.end())
	st = rec.begin(rec.root, "risk.grid", true)
	if _, err := risk.SignatureGrid(cf.Graph(), risk.SignatureConfig{
		MaxDistance: serveMaxDistance,
		LinkTypes:   allLinkTypes(cf.Graph().Schema()),
		EntityAttrs: []int{tqq.AttrNumTags},
		Metrics:     reg,
	}); err != nil {
		return err
	}
	L["risk.grid_s"] = seconds(st.end())
	L["risk.rounds"] = float64(reg.Snapshot().Counter("risk_sweep_rounds_total"))
	st = rec.begin(rec.root, "dehin.index", true)
	if _, err := dehin.NewAttack(cf.Graph(), attackConfig(cf.Graph())); err != nil {
		return err
	}
	L["dehin.index_s"] = seconds(st.end())
	L["serve.setup_residual_s"] = oc.e2e["setup_s"] - (L["hin.load_s"] + L["risk.grid_s"] + L["dehin.index_s"])

	var cw, wr, tb, rd []float64
	for _, s := range reads {
		cw, wr = append(cw, micros(s.connWait)), append(wr, micros(s.write))
		tb, rd = append(tb, micros(s.ttfb)), append(rd, micros(s.bodyRead))
	}
	L["net.conn_wait_us"], L["net.write_us"], L["net.ttfb_us"], L["net.read_us"] = median(cw), median(wr), median(tb), median(rd)
	L["loadgen.late_us"] = quantile(lateness(reads), 0.99)

	m, err := d.scrape()
	if err != nil {
		return err
	}
	L["runtime.gc_pause_p99_us"] = m["runtime_gc_pause_ns_p99"] / 1e3

	// Replay through the real handler, in process, on the same file.
	srv := serve.New(serve.Config{
		MaxDistance:    serveMaxDistance,
		AttackDistance: serveAttackDist,
		EntityAttrs:    []int{tqq.AttrNumTags},
		Profile:        dehin.TQQProfile(),
	})
	defer srv.Close()
	st = rec.begin(rec.root, "serve.snapshot_build", true)
	if err := srv.Load(f.path); err != nil {
		return err
	}
	L["serve.snapshot_build_s"] = seconds(st.end())
	h := srv.Handler()
	rp := rec.begin(rec.root, "serve.replay", false)
	mix := newReadMix(f, 0) // connection 0's requests, again
	per := map[int][]float64{}
	var all []float64
	serveOne := func(r request) error {
		req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
		w := httptest.NewRecorder()
		st := rec.begin(rp.sp, "serve.handler", false)
		h.ServeHTTP(w, req)
		us := micros(st.end())
		if w.Code != http.StatusOK {
			return fmt.Errorf("replayed %s %s: status %d", r.method, r.path, w.Code)
		}
		per[r.kind] = append(per[r.kind], us)
		if r.kind != kindDehin {
			all = append(all, us)
		}
		return nil
	}
	for i := 0; i < replayReads; i++ {
		if err := serveOne(mix.next()); err != nil {
			return err
		}
	}
	if ss != nil {
		for i := 0; i < replayAttacks; i++ {
			if err := serveOne(request{kind: kindDehin, method: "POST", path: "/v1/dehin", body: ss.snips[i].body}); err != nil {
				return err
			}
		}
		L["serve.handler_dehin_us"] = median(per[kindDehin])
	}
	L["serve.handler_risk_us"] = median(per[kindRisk])
	L["serve.handler_topk_us"] = median(per[kindTopK])
	L["serve.handler_snapshot_us"] = median(per[kindSnapshot])
	L["net.remainder_us"] = median(latencies(reads, kindRisk, kindTopK, kindSnapshot)) - median(all)
	rp.end()

	rep, err := exportTrace(rec.tr, filepath.Join(workdir, "trace-"+name+".json"))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans in %s\n", rep.Spans, rep.Path)
	printSelfTimes(&rep)
	return nil
}
