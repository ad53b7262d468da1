package main

// Per-layer figures of the traced run. Each layer is timed from outside,
// through its public functions, with a span around every call (or around
// every batch of calls, for calls too short to time one by one); the
// figures are medians of those spans. Counts come from the daemons' and the
// seat's own telemetry.

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"padico/internal/core"
	"padico/internal/deploy"
	"padico/internal/gatekeeper"
	"padico/internal/orb"
	"padico/internal/pool"
	"padico/internal/simnet"
	"padico/internal/soap"
	"padico/internal/sockets"
	"padico/internal/telemetry"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// perLayer names every layer metric a traced run reports, whatever its
// workload.
var perLayer = []string{
	"pool.get_put_ns", "gatekeeper.encode_ns", "gatekeeper.decode_ns", "gatekeeper.frame_bytes",
	"gatekeeper.allocs_per_call", "gatekeeper.inproc_rtt_us", "sockets.stream_rtt_us",
	"sockets.frames_per_call", "sockets.dials_per_call", "telemetry.request_ns",
	"telemetry.overhead_us", "core.load_ms", "deploy.boot_ms", "deploy.attach_ms",
	"gatekeeper.partition_lookup_us", "gatekeeper.answer_codec_us", "gatekeeper.sync_round_ms",
	"gatekeeper.sync_bytes_per_round", "gatekeeper.sync_records_per_round", "gatekeeper.recovery_mb",
	"gatekeeper.retries", "gatekeeper.resolve_cached_ns", "vlink.dial_us", "vlink.local_echo_us",
	"simnet.charge_us", "soap.codec_us", "unaccounted_us", "runtime.cpu_us_per_call",
	"runtime.alloc_kb_per_call", "runtime.gc_per_kcall", "trace.overhead_pct",
	// End-to-end figures that drift with the shared host by more than any
	// bound allows, reported here without one (see README).
	"p99_us", "announce_per_s",
}

// Iteration counts of the layer probes.
const (
	probeCalls = 400  // calls timed one by one
	probeBatch = 1000 // calls per span, for calls under a microsecond
	probeSpans = 21   // batch spans per probe
)

// layerEnv is what a workload hands the layer probes: its grid, a live
// seat, its directory and the daemons the probes act on.
type layerEnv struct {
	g        *grid
	dep      *deploy.WallDeployment
	dir      *directory
	soapHost int // index in g.ds of the daemon that hosts soap (loaded here if absent)
	resolve  gatekeeper.LookupQuery
	// path sums the layer timings (µs) on the blocking path of the
	// workload's median call, from the metrics measured so far.
	path func(m map[string]metric) float64
}

// probe records n spans named name, each around batch calls of f, and
// returns the median time of one call in µs.
func probe(t *tracer, name string, n, batch int, f func() error) (float64, error) {
	var per []float64
	for i := 0; i < n; i++ {
		root := t.root("probe")
		id := t.open(root, name)
		for k := 0; k < batch; k++ {
			if err := f(); err != nil {
				t.end(id)
				t.end(root)
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		t.end(id)
		t.end(root)
		s := t.spans[id]
		per = append(per, float64(s.End-s.Start)/1e3/float64(batch))
	}
	return median(per), nil
}

// measureLayers runs every layer probe and sets every per-layer metric not
// already set by the workload's own loop and recovery.
func measureLayers(r *run, env layerEnv) error {
	t := r.rec
	steps := []func(*run, layerEnv) error{
		framingLayers, inprocRTT, streamRTT, telemetryLayers, coreLoad,
		registryLayers, middlewareLayers,
	}
	for _, step := range steps {
		if err := step(r, env); err != nil {
			return err
		}
	}
	r.set("deploy.boot_ms", "ms", median(t.durations("deploy.StartDaemon"))/1e3)
	r.set("deploy.attach_ms", "ms", median(t.durations("deploy.Attach"))/1e3)
	calls := float64(r.calls[0] + r.calls[1])
	r.set("sockets.frames_per_call", "1", float64(r.seat.frames)/calls)
	r.set("sockets.dials_per_call", "1", float64(r.seat.dials)/calls)
	r.set("gatekeeper.retries", "1", float64(r.seat.failovers+r.daemonRetries))
	r.set("unaccounted_us", "us", median(r.lat)-env.path(r.metrics))
	untraced := float64(r.calls[0]) / r.busy[0].Seconds()
	traced := float64(r.calls[1]) / r.busy[1].Seconds()
	r.set("trace.overhead_pct", "%", 100*(untraced-traced)/untraced)
	return nil
}

// controlFrames returns the request/response pairs of one control mix
// cycle, with real answers fetched from the grid's first daemon, weighted
// as the mix weights its calls.
func controlFrames(env layerEnv) ([][2]any, error) {
	node := env.g.ds[0].Node()
	st, err := env.dep.Ctl.Stats(node)
	if err != nil {
		return nil, err
	}
	snap, err := env.dep.Ctl.Metrics(node)
	if err != nil {
		return nil, err
	}
	mods, err := env.dep.Ctl.Modules(node)
	if err != nil {
		return nil, err
	}
	trace := "gb-1-1"
	pair := func(op string, resp *gatekeeper.Response) [2]any {
		resp.OK, resp.TraceID = true, trace
		return [2]any{&gatekeeper.Request{Op: op, TraceID: trace}, resp}
	}
	var out [][2]any
	add := func(n int, p [2]any) {
		for i := 0; i < n; i++ {
			out = append(out, p)
		}
	}
	add(controlMix[opPing]+controlMix[opFlight]*flightLen/3, pair(gatekeeper.OpPing, &gatekeeper.Response{}))
	add(controlMix[opStats]+controlMix[opFlight]*flightLen/3, pair(gatekeeper.OpStats, &gatekeeper.Response{Stats: st}))
	add(controlMix[opList]+3*controlMix[opFanout]+controlMix[opFlight]*flightLen/3,
		pair(gatekeeper.OpListModules, &gatekeeper.Response{Modules: mods}))
	add(controlMix[opMetrics], pair(gatekeeper.OpMetrics, &gatekeeper.Response{Metrics: snap}))
	return out, nil
}

// framingLayers times the pool and the gatekeeper frame codec on the
// control mix's frames, in memory.
func framingLayers(r *run, env layerEnv) error {
	frames, err := controlFrames(env)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	encode := func() error {
		buf.Reset()
		for _, f := range frames {
			if err := gatekeeper.WriteRequest(&buf, f[0].(*gatekeeper.Request)); err != nil {
				return err
			}
			if err := gatekeeper.WriteResponse(&buf, f[1].(*gatekeeper.Response)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := encode(); err != nil {
		return err
	}
	wire := append([]byte(nil), buf.Bytes()...)
	var rd bytes.Reader
	decode := func() error {
		rd.Reset(wire)
		for range frames {
			if _, err := gatekeeper.ReadRequest(&rd); err != nil {
				return err
			}
			if _, err := gatekeeper.ReadResponse(&rd); err != nil {
				return err
			}
		}
		return nil
	}
	n := float64(len(frames))
	enc, err := probe(r.rec, "gatekeeper.WriteRequest+WriteResponse", probeSpans, 20, encode)
	if err != nil {
		return err
	}
	dec, err := probe(r.rec, "gatekeeper.ReadRequest+ReadResponse", probeSpans, 20, decode)
	if err != nil {
		return err
	}
	r.set("gatekeeper.encode_ns", "ns", enc*1e3/n)
	r.set("gatekeeper.decode_ns", "ns", dec*1e3/n)
	r.set("gatekeeper.frame_bytes", "B", float64(len(wire))/n)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	const rounds = 20
	for i := 0; i < rounds; i++ {
		if err := encode(); err != nil {
			return err
		}
		if err := decode(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	r.set("gatekeeper.allocs_per_call", "1", float64(ms1.Mallocs-ms0.Mallocs)/rounds/n)

	size := len(wire) / len(frames) // the size class of an average control frame
	getPut, err := probe(r.rec, "pool.Get+Put", probeSpans, probeBatch, func() error {
		pool.Put(pool.Get(size))
		return nil
	})
	if err != nil {
		return err
	}
	r.set("pool.get_put_ns", "ns", getPut*1e3)
	return nil
}

// memTransport is an in-memory orb.Transport: every dial is a net.Pipe, no
// TCP and no mux in between.
type memTransport struct {
	node string
	mu   sync.Mutex
	lns  map[string]*memAcceptor
}

type memAcceptor struct {
	conns chan vlink.Stream
	done  chan struct{}
	once  sync.Once
}

type pipeConn struct{ net.Conn }

func (c pipeConn) LocalAddr() string  { return "mem" }
func (c pipeConn) RemoteAddr() string { return "mem" }

func (t *memTransport) NodeName() string { return t.node }

func (t *memTransport) Listen(service string) (orb.Acceptor, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := &memAcceptor{conns: make(chan vlink.Stream), done: make(chan struct{})}
	t.lns[service] = a
	return a, nil
}

func (t *memTransport) Dial(node, service string) (vlink.Stream, error) {
	t.mu.Lock()
	a := t.lns[service]
	t.mu.Unlock()
	if a == nil || node != t.node {
		return nil, fmt.Errorf("mem: no %s on %s", service, node)
	}
	c1, c2 := net.Pipe()
	select {
	case a.conns <- pipeConn{c2}:
		return pipeConn{c1}, nil
	case <-a.done:
		return nil, fmt.Errorf("mem: %s closed", service)
	}
}

func (a *memAcceptor) Accept() (vlink.Stream, error) {
	select {
	case c := <-a.conns:
		return c, nil
	case <-a.done:
		return nil, io.EOF
	}
}

func (a *memAcceptor) Close() error {
	a.once.Do(func() { close(a.done) })
	return nil
}

// memTarget is a minimal steered process for the in-memory gatekeeper.
type memTarget struct{}

func (memTarget) NodeName() string                { return "mem" }
func (memTarget) LoadModule(string) error         { return fmt.Errorf("mem: no modules") }
func (memTarget) UnloadModule(string, bool) error { return fmt.Errorf("mem: no modules") }
func (memTarget) Modules() []string               { return []string{"vlink"} }
func (memTarget) Services() []string              { return nil }
func (memTarget) Report() gatekeeper.Stats {
	return gatekeeper.Stats{Node: "mem", Modules: []string{"vlink"}}
}

// inprocRTT pings a gatekeeper over the in-memory transport: the control
// plane's own cost, without sockets.
func inprocRTT(r *run, _ layerEnv) error {
	wall := vtime.NewWall()
	tr := &memTransport{node: "mem", lns: map[string]*memAcceptor{}}
	gk, err := gatekeeper.Serve(wall, tr, memTarget{})
	if err != nil {
		return err
	}
	defer gk.Close()
	ctl := gatekeeper.NewController(wall, tr)
	defer ctl.Close()
	if err := ctl.Ping("mem"); err != nil {
		return err
	}
	v, err := probe(r.rec, "gatekeeper.Controller.Ping(in-memory)", probeCalls, 1, func() error { return ctl.Ping("mem") })
	if err != nil {
		return err
	}
	r.set("gatekeeper.inproc_rtt_us", "us", v)
	return nil
}

// streamRTT echoes 64 bytes on a raw mux stream between two wall hosts.
func streamRTT(r *run, _ layerEnv) error {
	srv := sockets.NewWallHost("probe-srv")
	defer srv.Close()
	addr, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	ln, err := srv.Listen("bench:echo")
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c)
	}()
	cli := sockets.NewWallHost("probe-cli")
	c, err := cli.DialAddr(addr, "bench:echo")
	if err != nil {
		cli.Close()
		return err
	}
	msg := make([]byte, 64)
	got := make([]byte, 64)
	v, err := probe(r.rec, "sockets.Conn.Write+Read(64B)", probeCalls, 1, func() error {
		if _, err := c.Write(msg); err != nil {
			return err
		}
		_, err := io.ReadFull(c, got)
		return err
	})
	c.Close()
	cli.Close()
	_ = ln.Close()
	wg.Wait()
	if err != nil {
		return err
	}
	r.set("sockets.stream_rtt_us", "us", v)
	return nil
}

// telemetryLayers times the telemetry calls one served request makes with
// sampling off, and the cost of the whole telemetry stack on a live ping:
// a telemetered and a bare controller ping the same daemon turn about.
func telemetryLayers(r *run, env layerEnv) error {
	tel := telemetry.New("probe", vtime.NewWall())
	v, err := probe(r.rec, "telemetry.request", probeSpans, probeBatch, func() error {
		id := tel.NextTraceID()
		tel.Counter("gk.requests").Inc()
		tel.Trace(id, "gk.recv", "op=ping")
		sp := tel.StartSpanCtx(telemetry.SpanContext{Trace: id}, "gk.ping")
		start := tel.Now()
		tel.Histogram("gk.handle").Observe(tel.Since(start))
		sp.End()
		return nil
	})
	if err != nil {
		return err
	}
	r.set("telemetry.request_ns", "ns", v*1e3)

	node := env.g.ds[0].Node()
	bare := gatekeeper.NewController(env.dep.Wall, env.dep.Tr)
	defer bare.Close()
	var withTel, without []float64
	for i := 0; i < 2*probeCalls; i++ {
		for k, ctl := range []*gatekeeper.Controller{env.dep.Ctl, bare} {
			name := "gatekeeper.Controller.Ping(telemetered)"
			if k == 1 {
				name = "gatekeeper.Controller.Ping(bare)"
			}
			d, err := probe(r.rec, name, 1, 1, func() error { return ctl.Ping(node) })
			if err != nil {
				return err
			}
			if i > 0 { // the first round dials
				if k == 0 {
					withTel = append(withTel, d)
				} else {
					without = append(without, d)
				}
			}
		}
	}
	r.set("telemetry.overhead_us", "us", median(withTel)-median(without))
	return nil
}

// coreLoad hot-loads and unloads soap on a wall-clock Padico process.
func coreLoad(r *run, _ layerEnv) error {
	grid := core.NewGridOn(vtime.NewWall())
	node := grid.Net.NewNode("probe")
	if _, err := grid.AddEthernet("local", []*simnet.Node{node}); err != nil {
		return err
	}
	proc, err := grid.Launch(node)
	if err != nil {
		return err
	}
	defer proc.Shutdown()
	if err := proc.Load("vlink"); err != nil {
		return err
	}
	v, err := probe(r.rec, "core.Process.Load+Unload(soap)", 41, 1, func() error {
		if err := proc.Load("soap"); err != nil {
			return err
		}
		if !proc.Loaded("soap") {
			return fmt.Errorf("soap not loaded")
		}
		return proc.Unload("soap")
	})
	if err != nil {
		return err
	}
	r.set("core.load_ms", "ms", v/1e3)
	return nil
}

// registryLayers times the replica's partition scan, the batch answer
// codec, anti-entropy rounds of a converged directory and a cached resolve.
func registryLayers(r *run, env layerEnv) error {
	reg := env.g.ds[0].Reg
	rng := newRand(r.seed, streamDirMix)
	hits := env.dir.hits
	// Registry.Lookup scans every shard the replica hosts; a served named
	// lookup scans only the name's own. The partition figure is one
	// shard's share.
	shards := float64(len(reg.ShardIDs()))
	v, err := probe(r.rec, "gatekeeper.Registry.Lookup", probeCalls, 1, func() error {
		q := hits[rng.IntN(len(hits))]
		if got := reg.Lookup(benchKind, q); len(got) != len(env.dir.byName[q]) {
			return fmt.Errorf("in-process lookup of %s: %d entries, want %d", q, len(got), len(env.dir.byName[q]))
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("gatekeeper.partition_lookup_us", "us", v/shards)

	answers := make([]*gatekeeper.Response, batchLen)
	for i := range answers {
		q := hits[rng.IntN(len(hits))]
		if i%5 == 4 {
			q = env.dir.misses[i]
		}
		answers[i] = &gatekeeper.Response{OK: true, Entries: env.dir.byName[q]}
	}
	var buf bytes.Buffer
	v, err = probe(r.rec, "gatekeeper.WriteResponse+ReadResponse(batch answer)", probeCalls, 1, func() error {
		buf.Reset()
		for _, a := range answers {
			if err := gatekeeper.WriteResponse(&buf, a); err != nil {
				return err
			}
		}
		for range answers {
			if _, err := gatekeeper.ReadResponse(&buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("gatekeeper.answer_codec_us", "us", v)

	// Anti-entropy of a converged directory, in a window with no client
	// traffic: bytes and records per round from the replicas' counters.
	if err := converge(env.dep, env.g); err != nil {
		return err
	}
	count := func() (bytes, records, rounds int64) {
		for _, d := range env.g.ds {
			if d.Reg == nil {
				continue
			}
			s := d.Telemetry().Snapshot()
			bytes += s.Counter("reg.bytes_in") + s.Counter("reg.bytes_out")
			records += s.Counter("reg.shard.records_sent") + s.Counter("reg.shard.records_recv")
			rounds += s.Counter("reg.sync_rounds")
		}
		return
	}
	b0, rec0, n0 := count()
	v, err = probe(r.rec, "gatekeeper.Registry.SyncNow", 11, 1, func() error {
		reg.SyncNow()
		return nil
	})
	if err != nil {
		return err
	}
	b1, rec1, n1 := count()
	r.set("gatekeeper.sync_round_ms", "ms", v/1e3)
	rounds := float64(max(n1-n0, 1))
	r.set("gatekeeper.sync_bytes_per_round", "KB", float64(b1-b0)/1024/rounds)
	r.set("gatekeeper.sync_records_per_round", "1", float64(rec1-rec0)/rounds)

	rc := env.dep.Registry()
	rc.SetCacheTTL(time.Hour)
	if _, err := rc.Resolve(env.resolve.Kind, env.resolve.Name); err != nil {
		return err
	}
	v, err = probe(r.rec, "gatekeeper.RegistryClient.Resolve(cached)", probeSpans, probeBatch, func() error {
		_, err := rc.Resolve(env.resolve.Kind, env.resolve.Name)
		return err
	})
	if err != nil {
		return err
	}
	r.set("gatekeeper.resolve_cached_ns", "ns", v*1e3)
	return nil
}

// middlewareLayers times the SOAP path's pieces: a by-name dial through
// the gateway, the echo on the hosting daemon's own linker (the leg the
// gateway proxies into), one simulated CPU charge on that daemon's node and
// the XML codec of a session's envelopes.
func middlewareLayers(r *run, env layerEnv) error {
	d := env.g.ds[env.soapHost]
	if !slices.Contains(d.Proc.Modules(), "soap") {
		if _, err := env.dep.Ctl.Load(d.Node(), "soap"); err != nil {
			return err
		}
	}
	rc := env.dep.Registry()
	err := waitUntil("soap:sys on "+d.Node(), 10*time.Second, func() error {
		rc.SetCacheTTL(time.Hour) // drops what the cache held, then keeps the fresh answer
		e, err := rc.Resolve("vlink", "soap:sys")
		if err == nil && e.Node != d.Node() {
			err = fmt.Errorf("soap:sys resolves to %s", e.Node)
		}
		return err
	})
	if err != nil {
		return err
	}
	v, err := probe(r.rec, "gatekeeper.DialServiceOn(soap:sys)", probeCalls, 1, func() error {
		st, err := env.dep.DialService("vlink", "soap:sys")
		if err != nil {
			return err
		}
		return st.Close()
	})
	if err != nil {
		return err
	}
	r.set("vlink.dial_us", "us", v)

	rng := newRand(r.seed, streamEcho)
	text := echoText(rng, smallEcho)
	st, err := d.Proc.Linker().DialName(d.Node(), "soap:sys")
	if err != nil {
		return err
	}
	v, err = probe(r.rec, "soap.Call(local linker)", probeCalls, 1, func() error {
		got, err := soap.Call(st, "echo", text)
		if err == nil {
			err = checkEcho(got, text)
		}
		return err
	})
	st.Close()
	if err != nil {
		return err
	}
	r.set("vlink.local_echo_us", "us", v)

	node := d.Proc.Node()
	v, err = probe(r.rec, "simnet.Node.Charge(15us)", probeCalls, 1, func() error {
		node.Charge(simnet.Cost{PerMessage: 15 * time.Microsecond}, 0)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("simnet.charge_us", "us", v)

	// One session's envelopes: each call's request and its reply.
	var envs []soap.Envelope
	for i := 0; i <= smallEchoes; i++ {
		n := smallEcho
		if i == smallEchoes {
			n = largeEcho
		}
		body := soap.Body{Method: "echo", Params: []string{echoText(rng, n)}}
		envs = append(envs, soap.Envelope{Body: body}, soap.Envelope{Body: body})
	}
	mods := soap.Body{Method: "modules", Params: d.Proc.Modules()}
	envs = append(envs, soap.Envelope{Body: soap.Body{Method: "modules"}}, soap.Envelope{Body: mods})
	v, err = probe(r.rec, "xml.Marshal+Unmarshal(soap.Envelope)", probeSpans, 10, func() error {
		for _, e := range envs {
			data, err := xml.Marshal(&e)
			if err != nil {
				return err
			}
			var back soap.Envelope
			if err := xml.Unmarshal(data, &back); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("soap.codec_us", "us", v/float64(len(envs)/2))
	return nil
}
