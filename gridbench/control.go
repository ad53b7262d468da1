package main

// The control workload: an operator steering a three-daemon grid. Every
// call is a small framed exchange on a pooled mux session, so the frame
// codec, the gatekeeper's handler, telemetry and the mux dominate; the
// registry scan and the middleware path barely run.

import (
	"fmt"
	"slices"
	"time"

	"padico/internal/deploy"
	"padico/internal/gatekeeper"
)

const (
	// controlRound is how long one seat session drives the mix before a
	// fresh seat takes over: a single long loopback session settles into
	// one of two latency modes, so a run samples many sessions instead.
	controlRound = 100 * time.Millisecond
	// flightLen is the number of requests in one pipelined flight.
	flightLen = 16
	// recoveryReps is how many crash-restart cycles a run times.
	recoveryReps = 31
)

// The control mix, per cycle of 100 calls, shuffled by the seed.
const (
	opPing = iota
	opStats
	opList
	opFanout
	opMetrics
	opFlight
	opToggle
)

var controlMix = map[int]int{
	opPing: 40, opStats: 15, opList: 10, opFanout: 10, opMetrics: 15, opFlight: 9, opToggle: 1,
}

var controlOpNames = [...]string{"ping", "stats", "list", "fanout", "metrics", "flight", "toggle"}

// controlConfigs is the control grid: three daemons in two zones, registry
// replicas on the first two, deployment-default lease and sync interval.
// c1 boots with hla so module tables differ between nodes.
func controlConfigs(prefix string) []deploy.DaemonConfig {
	regs := []string{prefix + "0", prefix + "1"}
	return []deploy.DaemonConfig{
		{Node: prefix + "0", Zone: "a", Registries: regs},
		{Node: prefix + "1", Zone: "b", Registries: regs, Modules: []string{"hla"}},
		{Node: prefix + "2", Zone: "b", Registries: regs},
	}
}

// bootModules is the module table a daemon of cfg reports right after boot.
func bootModules(cfg deploy.DaemonConfig) []string {
	out := append([]string{"vlink"}, cfg.Modules...)
	slices.Sort(out)
	return slices.Compact(out)
}

func withModule(mods []string, m string) []string {
	out := append(slices.Clone(mods), m)
	slices.Sort(out)
	return slices.Compact(out)
}

func withoutModule(mods []string, m string) []string {
	return slices.DeleteFunc(slices.Clone(mods), func(s string) bool { return s == m })
}

func runControl(r *run) error {
	cfgs := controlConfigs("c")
	g, setupS, err := setupMedian(func() (*grid, error) {
		g, err := bootGrid(cfgs, r.rec)
		if err != nil {
			return nil, err
		}
		dep, err := attach(g, r.rec)
		if err == nil {
			err = waitUntil("control grid ready", 10*time.Second, func() error { return published(dep, g) })
			dep.Close()
		}
		if err != nil {
			g.close()
			return nil, err
		}
		return g, nil
	}, (*grid).close)
	if err != nil {
		return err
	}
	defer func() { g.close() }()
	r.set("setup_s", "s", setupS)

	nodes := g.nodes()
	want := map[string][]string{}
	for _, cfg := range cfgs {
		want[cfg.Node] = bootModules(cfg)
	}
	host := nodes[2] // the daemon with no replica: soap churn and crashes land here

	dep, err := attach(g, r.rec)
	if err != nil {
		return err
	}
	dir := genDirectory(r.seed, 8, 16, 2, 16)
	rates, err := announcePhase(r, dep, dir, 2000)
	if err != nil {
		dep.Close()
		return err
	}
	r.set("announce_per_s", "entries/s", median(rates))
	dep.Close()

	rng := newRand(r.seed, streamControl)
	lastReqs := map[string]int64{}
	traceSeq := 0
	cycle := make([]int, 0, 100)
	for op, n := range controlMix {
		for i := 0; i < n; i++ {
			cycle = append(cycle, op)
		}
	}
	slices.Sort(cycle) // map order is random; the seed alone orders the mix

	err = r.loop(g, func() error {
		deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
		for round := 0; r.more(round, deadline); round++ {
			r.traceRound(round)
			dep, err := attach(g, nil)
			if err != nil {
				return err
			}
			ctl := dep.Ctl
			roundEnd := time.Now().Add(controlRound)
			r.round(dep, func() {
				for time.Now().Before(roundEnd) {
					rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
					for _, op := range cycle {
						node := nodes[rng.IntN(len(nodes))]
						name := controlOpNames[op]
						switch op {
						case opPing:
							r.call(name, "gatekeeper.Controller.Ping", func() error { return ctl.Ping(node) },
								func() (int, error) { return 0, nil })
						case opStats:
							var st *gatekeeper.Stats
							r.call(name, "gatekeeper.Controller.Stats", func() (err error) {
								st, err = ctl.Stats(node)
								return err
							}, func() (int, error) {
								return stringsBytes(st.Modules), checkStats(st, node, want[node])
							})
						case opList:
							var mods []string
							r.call(name, "gatekeeper.Controller.Modules", func() (err error) {
								mods, err = ctl.Modules(node)
								return err
							}, func() (int, error) { return stringsBytes(mods), checkModules(mods, want[node]) })
						case opFanout:
							var res []gatekeeper.FanResult
							r.call(name, "gatekeeper.Controller.Fanout", func() error {
								res = ctl.Fanout(nodes, &gatekeeper.Request{Op: gatekeeper.OpListModules})
								for _, fr := range res {
									if fr.Err != nil {
										return fr.Err
									}
								}
								return nil
							}, func() (int, error) {
								n := 0
								for i, fr := range res {
									if fr.Node != nodes[i] {
										return n, fmt.Errorf("fan-out answer %d from %s, want %s", i, fr.Node, nodes[i])
									}
									if err := checkModules(fr.Resp.Modules, want[fr.Node]); err != nil {
										return n, fmt.Errorf("%s: %w", fr.Node, err)
									}
									n += stringsBytes(fr.Resp.Modules)
								}
								return n, nil
							})
						case opMetrics:
							var snapReqs int64
							var snapNode string
							r.call(name, "gatekeeper.Controller.Metrics", func() error {
								snap, err := ctl.Metrics(node)
								if err == nil {
									snapNode, snapReqs = snap.Node, snap.Counter("gk.requests")
								}
								return err
							}, func() (int, error) {
								if snapNode != node {
									return 0, fmt.Errorf("metrics from %q, want %q", snapNode, node)
								}
								// Every scrape is itself a request, so the count
								// must have grown since the last scrape.
								if snapReqs <= lastReqs[node] {
									return 0, fmt.Errorf("%s gk.requests = %d, not above the %d seen before", node, snapReqs, lastReqs[node])
								}
								lastReqs[node] = snapReqs
								return 8, nil
							})
						case opFlight:
							reqs := make([]*gatekeeper.Request, flightLen)
							for i := range reqs {
								traceSeq++
								reqs[i] = &gatekeeper.Request{
									Op:      []string{gatekeeper.OpPing, gatekeeper.OpListModules, gatekeeper.OpStats}[i%3],
									TraceID: fmt.Sprintf("gb-%d-%d", r.seed, traceSeq),
								}
							}
							var resps []*gatekeeper.Response
							r.call(name, "gatekeeper.Controller.DoPipelined", func() (err error) {
								resps, err = ctl.DoPipelined(node, reqs)
								return err
							}, func() (int, error) {
								n := 0
								for i := range resps {
									n += 2*len(reqs[i].TraceID) + stringsBytes(resps[i].Modules)
								}
								return n, checkFlight(node, reqs, resps, want[node])
							})
						case opToggle:
							loaded := slices.Contains(want[host], "soap")
							var mods []string
							r.call(name, "gatekeeper.Controller.Load", func() (err error) {
								if loaded {
									mods, err = ctl.Unload(host, "soap", false)
								} else {
									mods, err = ctl.Load(host, "soap")
								}
								return err
							}, func() (int, error) {
								next := withModule(want[host], "soap")
								if loaded {
									next = withoutModule(want[host], "soap")
								}
								if err := checkModules(mods, next); err != nil {
									return 0, err
								}
								want[host] = next
								return stringsBytes(mods), nil
							})
						}
					}
				}
			})
			dep.Close()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := r.loopMetrics(); err != nil {
		return err
	}

	// Crash recovery: the replica-less daemon is killed and restarted on a
	// fresh port, repeatedly. It has recovered when it answers a ping and
	// its fresh lease — the one advertising the new endpoint — is visible
	// on the replica it publishes to.
	dep, err = attach(g, nil)
	if err != nil {
		return err
	}
	defer dep.Close()
	hostIdx := slices.IndexFunc(g.ds, func(d *deploy.Daemon) bool { return d.Node() == host })
	replica := nodes[0]
	var times, mbs []float64
	for i := 0; i < recoveryReps; i++ {
		err := r.op("recovery", func() error {
			start, err := g.restart(hostIdx, "", r.rec)
			if err != nil {
				return err
			}
			addr := g.ds[hostIdx].Addr()
			err = waitUntil("restarted "+host, 10*time.Second, func() error {
				es, err := dep.Registry().LookupAt(replica, "module", "vlink")
				if err != nil {
					return err
				}
				if e, ok := findEntry(es, host); !ok || e.Addr != addr {
					return fmt.Errorf("fresh lease of %s not visible", host)
				}
				return dep.Ctl.Ping(host)
			})
			if err != nil {
				return err
			}
			times = append(times, time.Since(start).Seconds())
			mbs = append(mbs, float64(g.ds[hostIdx].Telemetry().Snapshot().Counter("wall.bytes_in"))/1e6)
			want[host] = bootModules(g.cfgs[hostIdx])
			mods, err := dep.Ctl.Modules(host)
			if err == nil {
				if err = checkModules(mods, want[host]); err != nil {
					r.wrong++
				}
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	r.set("recovery_s", "s", median(times))
	r.set("gatekeeper.recovery_mb", "MB", median(mbs))
	if r.rec == nil {
		return nil
	}
	return measureLayers(r, layerEnv{g: g, dep: dep, dir: dir, soapHost: hostIdx,
		resolve: gatekeeper.LookupQuery{Kind: benchKind, Name: dir.hits[0]},
		// A control call: the frames cross one mux stream each way, and
		// each side encodes, decodes and records telemetry once.
		path: func(m map[string]metric) float64 {
			return m["sockets.stream_rtt_us"].Value + (m["gatekeeper.encode_ns"].Value+
				m["gatekeeper.decode_ns"].Value+m["telemetry.request_ns"].Value+
				2*m["pool.get_put_ns"].Value)/1e3
		}})
}
