package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"padico/internal/deploy"
	"padico/internal/gatekeeper"
)

// grid is one live loopback grid of padico-d daemons, all inside this
// process, each on its own real TCP listener.
type grid struct {
	cfgs []deploy.DaemonConfig
	ds   []*deploy.Daemon
}

// bootGrid starts one daemon per config, in order, each seeded with the
// endpoints of those already up; once all are up, every daemon learns every
// other's endpoint, as a launcher's plan would have told it.
func bootGrid(cfgs []deploy.DaemonConfig, tr *tracer) (*grid, error) {
	g := &grid{}
	peers := map[string]string{}
	for _, cfg := range cfgs {
		cfg.Peers = copyMap(peers)
		var d *deploy.Daemon
		err := tr.do(tr.root("setup.boot"), "deploy.StartDaemon", func() error {
			var err error
			d, err = deploy.StartDaemon(cfg)
			return err
		})
		if err != nil {
			g.close()
			return nil, fmt.Errorf("booting %s: %w", cfg.Node, err)
		}
		peers[cfg.Node] = d.Addr()
		g.cfgs = append(g.cfgs, cfg)
		g.ds = append(g.ds, d)
	}
	g.teach()
	return g, nil
}

// teach registers every daemon's current endpoint with every other daemon.
func (g *grid) teach() {
	for _, d := range g.ds {
		for _, o := range g.ds {
			if o != d {
				d.Host.Register(o.Node(), o.Addr())
			}
		}
	}
}

func copyMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (g *grid) close() {
	for _, d := range g.ds {
		d.Close()
	}
}

// restart crashes daemon i (no withdraw, no drain) and boots it again with
// the same configuration, listening on listen ("" for a fresh port). The
// returned time is when the new daemon began to boot.
func (g *grid) restart(i int, listen string, tr *tracer) (time.Time, error) {
	g.ds[i].Kill()
	time.Sleep(5 * time.Millisecond) // let the dead daemon's teardown finish off the clock
	cfg := g.cfgs[i]
	cfg.Listen = listen
	cfg.Peers = map[string]string{}
	for _, o := range g.ds {
		if o != g.ds[i] {
			cfg.Peers[o.Node()] = o.Addr()
		}
	}
	start := time.Now()
	var d *deploy.Daemon
	err := tr.do(tr.root("recovery.boot"), "deploy.StartDaemon", func() error {
		var err error
		d, err = deploy.StartDaemon(cfg)
		return err
	})
	if err != nil {
		return start, fmt.Errorf("restarting %s: %w", cfg.Node, err)
	}
	g.ds[i] = d
	g.teach()
	return start, nil
}

// attach opens an operator seat on the grid through its first daemon. The
// seat samples no spans of its own, like a daemon: the hot paths measured
// here are the untraced ones.
func attach(g *grid, tr *tracer) (*deploy.WallDeployment, error) {
	var dep *deploy.WallDeployment
	err := tr.do(tr.root("setup.attach"), "deploy.Attach", func() error {
		var err error
		dep, err = deploy.Attach([]string{g.ds[0].Addr()})
		return err
	})
	if err != nil {
		return nil, err
	}
	dep.Telemetry().SetSpanSampling(0)
	return dep, nil
}

// published reports whether every daemon's own lease is visible on the
// replica it published to. It asks each replica directly, so it never
// waits for anti-entropy to carry an announce across.
func published(dep *deploy.WallDeployment, g *grid) error {
	seen := map[string]bool{}
	for _, d := range g.ds {
		if d.Reg == nil {
			continue
		}
		es, err := dep.Registry().LookupAt(d.Node(), "module", "vlink")
		if err != nil {
			return err
		}
		for _, e := range es {
			seen[e.Node] = true
		}
	}
	for _, d := range g.ds {
		if !seen[d.Node()] {
			return fmt.Errorf("%s not announced yet", d.Node())
		}
	}
	return nil
}

// waitUntil polls cond until it returns nil or limit passes.
func waitUntil(what string, limit time.Duration, cond func() error) error {
	deadline := time.Now().Add(limit)
	for {
		err := cond()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not reached after %v: %w", what, limit, err)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// setupReps is how many times a run sets its grid up; setup_s is the
// median, and the last grid is the one the workload runs on.
const setupReps = 21

// setupMedian runs setup setupReps times, tearing down all but the last,
// and returns the last together with the median setup time in seconds.
func setupMedian[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var times []float64
	var last T
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupReps-1 {
			teardown(v)
		}
		last = v
	}
	return last, median(times), nil
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one workload run: its inputs, counts and samples.
type run struct {
	seed    int64
	seconds float64
	rec     *tracer // the traced run's recorder; nil when untraced
	tr      *tracer // rec while a traced round runs, nil otherwise

	attempted, failed, wrong int
	lat                      []float64 // µs per completed untraced call, in call order
	payload                  [2]int64  // checked payload bytes, both directions, per mode
	calls                    [2]int    // completed calls in untraced, traced rounds
	busy                     [2]time.Duration
	windows                  []window // untraced loop time, cut into windows
	metrics                  map[string]metric

	seat          seatCounts // the seats' own counters over the timed loop
	daemonRetries int64      // registry failovers and failed sync rounds over the loop

	// Process CPU time, heap bytes allocated and GC cycles over the timed
	// loop, summed over its segments.
	loopCPU           time.Duration
	loopAlloc, loopGC uint64
}

// seatCounts are the seat telemetry counters the layer metrics divide by
// the number of calls.
type seatCounts struct{ frames, dials, failovers int64 }

func readSeat(dep *deploy.WallDeployment) seatCounts {
	s := dep.Telemetry().Snapshot()
	return seatCounts{
		frames:    s.Counter("wall.frames_in") + s.Counter("wall.frames_out"),
		dials:     s.Counter("wall.dials"),
		failovers: s.Counter("regc.failovers"),
	}
}

// round runs one round of calls on seat dep: f is timed and booked to the
// round's mode (traced or not), and the seat's counters over it are added
// up.
func (r *run) round(dep *deploy.WallDeployment, f func()) {
	mode := 0
	if r.tr != nil {
		mode = 1
	}
	a := readSeat(dep)
	calls, payload := r.calls[0], r.payload[0]
	start := time.Now()
	f()
	d := time.Since(start)
	r.busy[mode] += d
	if mode == 0 {
		r.addToWindow(r.calls[0]-calls, d, r.payload[0]-payload)
	}
	b := readSeat(dep)
	r.seat.frames += b.frames - a.frames
	r.seat.dials += b.dials - a.dials
	r.seat.failovers += b.failovers - a.failovers
}

// daemonRetries sums every daemon's registry failovers and failed
// anti-entropy rounds, from their telemetry.
func daemonRetries(g *grid) int64 {
	var n int64
	for _, d := range g.ds {
		s := d.Telemetry().Snapshot()
		n += s.Counter("regc.failovers") + s.Counter("reg.sync_failures")
	}
	return n
}

// loop brackets the timed loop (or one segment of it) f on grid g, adding
// up the process's CPU time, its heap activity and the daemons' retries
// over it.
func (r *run) loop(g *grid, f func() error) error {
	runtime.GC() // start from a clean heap, not the set-up's garbage
	var ru [2]syscall.Rusage
	var ms [2]runtime.MemStats
	retries := daemonRetries(g)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru[0])
	runtime.ReadMemStats(&ms[0])
	err := f()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru[1])
	runtime.ReadMemStats(&ms[1])
	r.daemonRetries += daemonRetries(g) - retries
	r.loopCPU += time.Duration(ru[1].Utime.Nano() + ru[1].Stime.Nano() - ru[0].Utime.Nano() - ru[0].Stime.Nano())
	r.loopAlloc += ms[1].TotalAlloc - ms[0].TotalAlloc
	r.loopGC += uint64(ms[1].NumGC - ms[0].NumGC)
	r.tr = nil
	return err
}

func newRun(seed int64, seconds float64, traced bool) *run {
	r := &run{seed: seed, seconds: seconds, metrics: map[string]metric{}}
	if traced {
		r.rec = newTracer()
	}
	return r
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// call makes one workload call: do calls into the layer under test and is
// timed; check then verifies what came back and returns the payload bytes
// it verified. A transport error and a wrong answer both fail the call.
func (r *run) call(name, layer string, do func() error, check func() (int, error)) {
	r.attempted++
	root := r.tr.root(name)
	start := time.Now()
	err := r.tr.do(root, layer, do)
	d := time.Since(start)
	if err == nil {
		var n int
		err = r.tr.do(root, "bench.check", func() error {
			var cerr error
			n, cerr = check()
			if cerr != nil {
				r.wrong++
			}
			return cerr
		})
		if r.tr == nil {
			r.payload[0] += int64(n)
		} else {
			r.payload[1] += int64(n)
		}
	}
	r.tr.end(root)
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "gridbench: %s failed: %v\n", name, err)
		}
		return
	}
	mode := 0
	if r.tr != nil {
		mode = 1
	} else {
		r.lat = append(r.lat, micros(d))
	}
	r.calls[mode]++
}

// minCalls is the fewest untraced calls a loop completes, however long
// that takes: p99 needs ten calls beyond it.
const minCalls = 1000

// more reports whether the loop must run another round: until the
// deadline, then on until minCalls untraced calls are in, and in a traced
// run until the traced and untraced rounds pair up.
func (r *run) more(round int, deadline time.Time) bool {
	if r.rec != nil && round%2 == 1 {
		return true
	}
	return time.Now().Before(deadline) || (r.rec == nil && r.calls[0] < minCalls)
}

// traceRound switches tracing on for odd rounds of a traced run, so traced
// and untraced rounds interleave and their rates compare under the same
// machine load.
func (r *run) traceRound(i int) {
	r.tr = nil
	if r.rec != nil && i%2 == 1 {
		r.tr = r.rec
	}
}

// window is a stretch of consecutive untraced rounds: calls, loop time and
// payload, and where its calls' latencies start in run.lat.
type window struct {
	first, calls int
	busy         time.Duration
	payload      int64
}

// windowSecs is the least loop time of one window.
const windowSecs = time.Second

// addToWindow books one untraced round to the open window, and closes the
// window once it spans windowSecs and minCalls calls, so each window has a
// p99 with ten calls beyond it.
func (r *run) addToWindow(calls int, d time.Duration, payload int64) {
	n := len(r.windows)
	if n == 0 || (r.windows[n-1].busy >= windowSecs && r.windows[n-1].calls >= minCalls) {
		r.windows = append(r.windows, window{first: len(r.lat) - calls})
		n++
	}
	w := &r.windows[n-1]
	w.calls += calls
	w.busy += d
	w.payload += payload
}

// loopMetrics reports the closed loop's end-to-end figures. Each is
// computed per window and reported as the median over windows: the host
// these runs share slows down now and then for seconds, and a median over
// one-second windows lets a short slow spell shift the figures of a run
// far less than a pooled figure would.
func (r *run) loopMetrics() error {
	if r.calls[0] == 0 {
		return fmt.Errorf("no call completed")
	}
	if n := len(r.windows); n > 1 && r.windows[n-1].calls < minCalls {
		// A short last window joins the one before it.
		last := r.windows[n-1]
		r.windows = r.windows[:n-1]
		w := &r.windows[n-2]
		w.calls += last.calls
		w.busy += last.busy
		w.payload += last.payload
	}
	var rate, p50, p99, mbs []float64
	for _, w := range r.windows {
		lat := sorted(r.lat[w.first : w.first+w.calls])
		rate = append(rate, float64(w.calls)/w.busy.Seconds())
		p50 = append(p50, quantile(lat, 0.5))
		p99 = append(p99, quantile(lat, 0.99))
		mbs = append(mbs, float64(w.payload)/1e6/w.busy.Seconds())
		if len(lat) < minCalls && r.rec == nil {
			return fmt.Errorf("only %d calls: too few for a p99 with ten calls beyond it", len(lat))
		}
	}
	r.set("ops_per_s", "1/s", median(rate))
	r.set("p50_us", "us", median(p50))
	r.set("p99_us", "us", median(p99))
	r.set("payload_mb_s", "MB/s", median(mbs))
	calls := float64(r.calls[0] + r.calls[1])
	r.set("runtime.cpu_us_per_call", "us", micros(r.loopCPU)/calls)
	r.set("runtime.alloc_kb_per_call", "KB", float64(r.loopAlloc)/1024/calls)
	r.set("runtime.gc_per_kcall", "1", float64(r.loopGC)*1000/calls)
	return nil
}

// nodes returns the daemons' node names, sorted.
func (g *grid) nodes() []string {
	var out []string
	for _, d := range g.ds {
		out = append(out, d.Node())
	}
	sort.Strings(out)
	return out
}

// findEntry returns the entry of node in es.
func findEntry(es []gatekeeper.Entry, node string) (gatekeeper.Entry, bool) {
	for _, e := range es {
		if e.Node == node {
			return e, true
		}
	}
	return gatekeeper.Entry{}, false
}
