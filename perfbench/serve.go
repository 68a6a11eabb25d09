package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/risk"
	"github.com/hinpriv/dehin/internal/tqq"
)

// The served file and the daemon configuration. The benchmark's
// in-process oracle uses the same settings the daemon gets on its
// command line.
const (
	serveUsers       = 150000
	serveMaxDistance = 2
	serveAttackDist  = 1
	serveTopK        = 10
	daemonLaunches   = 3 // setup_s is the median over this many launches
	// kneeLimitUS is the p99 a ladder rung must stay within. The host's
	// vCPU stalls (see windowP99) made a 1 ms limit measure the host;
	// backlogUS is how far the generator may fall further behind within
	// a rung before the rate counts as past capacity.
	kneeLimitUS   = 10000
	backlogUS     = 1000
	maxCandidates = 128 // hinriskd's default cap on listed /v1/dehin matches
	// hinriskd's default limits on a posted snippet; it answers a larger
	// one with 413.
	maxSnippetEntities = 256
	maxSnippetLinks    = 1024
)

// daemonArgs is the hinriskd command line shared by every launch.
func daemonArgs(file string) []string {
	return []string{
		"-graph", file, "-addr", "127.0.0.1:0",
		"-maxdistance", strconv.Itoa(serveMaxDistance),
		"-attackdistance", strconv.Itoa(serveAttackDist),
		"-attrs", strconv.Itoa(tqq.AttrNumTags),
		"-exact", fmt.Sprintf("%d,%d", tqq.AttrYob, tqq.AttrGender),
		"-grow", fmt.Sprintf("%d,%d", tqq.AttrTweets, tqq.AttrNumTags),
	}
}

// fixture is the served network: the generated dataset, its persisted
// file, and the oracle the daemon's answers are checked against.
type fixture struct {
	seed           uint64
	ds             *tqq.Dataset
	path           string
	file           *hin.CSRFile
	g              *hin.CSRGraph
	class          [][]int32 // class[d][v]: size of v's signature class at distance d
	order          [][]int32 // order[d]: users by (class size, id)
	risk           []float64 // dataset risk per distance
	genS, persistS float64   // input preparation, timed for the traced run
}

// dropDataset releases the generated dataset once the file and the
// snippets exist, so the client's heap - and its GC work beside the
// daemon on the same cores - stays small during the load phase.
func (f *fixture) dropDataset() {
	f.ds = nil
	runtime.GC()
}

func (f *fixture) close() {
	if f.file != nil {
		f.file.Close()
	}
	os.Remove(f.path)
}

// newFixture generates the served network from the seed, persists it,
// and computes the read oracle with risk.SignatureGrid on the same file.
func newFixture(seed uint64, workdir string, rec *recorder) (*fixture, error) {
	f := &fixture{seed: seed, path: filepath.Join(workdir, fmt.Sprintf("serve-%d-%d.hincsr", seed, os.Getpid()))}
	st := rec.begin(rec.root, "tqq.generate", true)
	ds, err := tqq.Generate(pipelineConfig(serveUsers, seed))
	if err != nil {
		return nil, err
	}
	f.ds, f.genS = ds, seconds(st.end())
	st = rec.begin(rec.root, "hin.persist", true)
	if err := hin.WriteCSRFile(f.path, ds.Graph); err != nil {
		return nil, err
	}
	f.persistS = seconds(st.end())
	if f.file, err = hin.OpenCSRFile(f.path); err != nil {
		f.close()
		return nil, err
	}
	f.g = f.file.Graph()
	grid, err := risk.SignatureGrid(f.g, risk.SignatureConfig{
		MaxDistance: serveMaxDistance,
		LinkTypes:   allLinkTypes(f.g.Schema()),
		EntityAttrs: []int{tqq.AttrNumTags},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	n := f.g.NumEntities()
	for _, sigs := range grid {
		counts := make(map[uint64]int32, n)
		for _, s := range sigs {
			counts[s]++
		}
		class := make([]int32, n)
		order := make([]int32, n)
		sum := 0.0
		for v, s := range sigs {
			class[v] = counts[s]
			order[v] = int32(v)
			sum += 1 / float64(class[v])
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := order[i], order[j]
			if class[a] != class[b] {
				return class[a] < class[b]
			}
			return a < b
		})
		f.class = append(f.class, class)
		f.order = append(f.order, order)
		f.risk = append(f.risk, sum/float64(n))
	}
	return f, nil
}

// serveOracle is what oracle.json records for a serve fixture.
type serveOracle struct {
	Users  int       `json:"users"`
	Edges  int64     `json:"edges"`
	Risk   []float64 `json:"risk"`
	Unique int       `json:"unique,omitempty"`
}

func (f *fixture) oracleValues() serveOracle {
	return serveOracle{Users: f.g.NumEntities(), Edges: f.g.NumEdgesTotal(), Risk: f.risk}
}

// checkRecorded compares the fixture with the values recorded for the
// seed, when there are any.
func checkRecorded(oc *outcome, workload string, seed uint64, got serveOracle) {
	raw, ok := recordedOracle(workload, seed)
	if !ok {
		return
	}
	var want serveOracle
	if err := json.Unmarshal(raw, &want); err != nil {
		oc.check(false, "recorded oracle: %v", err)
		return
	}
	oc.check(got.Users == want.Users && got.Edges == want.Edges, "fixture %d users/%d links, recorded %d/%d", got.Users, got.Edges, want.Users, want.Edges)
	oc.check(len(got.Risk) == len(want.Risk), "fixture risk %v, recorded %v", got.Risk, want.Risk)
	for i := range got.Risk {
		if i < len(want.Risk) {
			oc.check(got.Risk[i] == want.Risk[i], "risk[%d] = %v, recorded %v", i, got.Risk[i], want.Risk[i])
		}
	}
	oc.check(got.Unique == want.Unique, "%d snippets uniquely re-identified, recorded %d", got.Unique, want.Unique)
}

// daemon is one running hinriskd.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// launchDaemon starts hinriskd and waits for its first 200 from
// /v1/healthz; the returned duration is setup_s for this launch.
func launchDaemon(bin string, args []string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// If the benchmark itself is killed, take the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		io.Copy(io.Discard, stdout)
	}()
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	var line string
	select {
	case line = <-lines:
	case <-d.done:
		return nil, 0, fmt.Errorf("hinriskd exited before announcing an address")
	case <-time.After(90 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("hinriskd did not announce an address")
	}
	base, ok := strings.CutPrefix(line, "listening ")
	if !ok {
		d.stop()
		return nil, 0, fmt.Errorf("unexpected hinriskd announcement %q", line)
	}
	d.base = base
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := client.Get(base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 90*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("hinriskd not healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSS is the daemon's VmHWM, which includes both snapshots that are
// live during a reload.
func (d *daemon) peakRSS() (float64, error) {
	return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
}

// stop sends SIGTERM and waits for the daemon to exit, killing it after
// 15 s.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// scrape reads the daemon's Prometheus text exposition into a map from
// series (name plus label block) to value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// setupDaemon launches the daemon daemonLaunches times, keeps the last
// one running and returns the median setup time.
func setupDaemon(bin string, args []string) (*daemon, float64, error) {
	var setups []float64
	for i := 0; i < daemonLaunches; i++ {
		d, dur, err := launchDaemon(bin, args)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, seconds(dur))
		if i == daemonLaunches-1 {
			return d, median(setups), nil
		}
		d.stop()
	}
	panic("unreachable")
}

// newClient is one load connection: an HTTP client that keeps exactly
// one keep-alive connection to the daemon.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}
