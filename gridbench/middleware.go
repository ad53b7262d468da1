package main

// The middleware workload: the application path of the live examples. A
// client resolves soap:sys by name (warm cache), dials it through the
// hosting daemon's wall gateway into the daemon's in-process SOAP server,
// and runs a short session of echo calls and one module listing.

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"padico/internal/deploy"
	"padico/internal/gatekeeper"
	"padico/internal/soap"
	"padico/internal/vlink"
)

const (
	// mwRound is how long one seat session opens SOAP sessions before a
	// fresh seat takes over (see controlRound).
	mwRound = 500 * time.Millisecond
	// Per session: 7 small echoes and one large one.
	smallEchoes = 7
	smallEcho   = 32
	largeEcho   = 4096
)

func runMiddleware(r *run) error {
	cfgs := controlConfigs("m")
	host := cfgs[2].Node // no replica; soap is hot-loaded here
	wantMods := withModule(bootModules(cfgs[2]), "soap")
	g, setupS, err := setupMedian(func() (*grid, error) {
		g, err := bootGrid(cfgs, r.rec)
		if err != nil {
			return nil, err
		}
		dep, err := attach(g, r.rec)
		if err == nil {
			err = soapReady(dep, host, wantMods)
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

	rng := newRand(r.seed, streamEcho)
	err = r.loop(g, func() error {
		deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
		for round := 0; r.more(round, deadline); round++ {
			r.traceRound(round)
			dep, err := attach(g, nil)
			if err != nil {
				return err
			}
			// Warm the seat's resolve cache for the whole round: every
			// timed dial resolves soap:sys from the cache.
			dep.Registry().SetCacheTTL(time.Hour)
			if _, err := dep.Registry().Resolve("vlink", "soap:sys"); err != nil {
				dep.Close()
				return err
			}
			roundEnd := time.Now().Add(mwRound)
			r.round(dep, func() {
				for time.Now().Before(roundEnd) {
					soapSession(r, dep, rng, wantMods)
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

	// Crash recovery: the soap host is killed and restarted on a fresh
	// port with soap configured at boot. It has recovered when its fresh
	// lease advertises soap:sys at the new endpoint and an echo dialed by
	// name comes back intact.
	dep, err = attach(g, nil)
	if err != nil {
		return err
	}
	defer dep.Close()
	hostIdx := slices.IndexFunc(g.ds, func(d *deploy.Daemon) bool { return d.Node() == host })
	g.cfgs[hostIdx].Modules = append(slices.Clone(g.cfgs[hostIdx].Modules), "soap")
	replica := g.ds[0].Node()
	text := echoText(rng, smallEcho)
	var times, mbs []float64
	for i := 0; i < recoveryReps; i++ {
		err := r.op("recovery", func() error {
			start, err := g.restart(hostIdx, "", r.rec)
			if err != nil {
				return err
			}
			addr := g.ds[hostIdx].Addr()
			err = waitUntil("restarted "+host, 10*time.Second, func() error {
				es, err := dep.Registry().LookupAt(replica, "vlink", "soap:sys")
				if err != nil {
					return err
				}
				if e, ok := findEntry(es, host); !ok || e.Addr != addr {
					return fmt.Errorf("fresh soap:sys of %s not visible", host)
				}
				st, err := dep.DialService("vlink", "soap:sys")
				if err != nil {
					return err
				}
				defer st.Close()
				got, err := soap.Call(st, "echo", text)
				if err != nil {
					return err
				}
				if err := checkEcho(got, text); err != nil {
					r.wrong++
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			times = append(times, time.Since(start).Seconds())
			mbs = append(mbs, float64(g.ds[hostIdx].Telemetry().Snapshot().Counter("wall.bytes_in"))/1e6)
			return nil
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
		resolve: gatekeeper.LookupQuery{Kind: "vlink", Name: "soap:sys"},
		// An echo: one mux stream to the gateway, the gateway's leg into
		// the in-process server, and the caller's own XML codec.
		path: func(m map[string]metric) float64 {
			return m["sockets.stream_rtt_us"].Value + m["vlink.local_echo_us"].Value + m["soap.codec_us"].Value
		}})
}

// soapReady hot-loads soap into host and waits until soap:sys resolves to
// it by name.
func soapReady(dep *deploy.WallDeployment, host string, want []string) error {
	mods, err := dep.Ctl.Load(host, "soap")
	if err != nil {
		return err
	}
	if err := checkModules(mods, want); err != nil {
		return err
	}
	return waitUntil("soap:sys published", 10*time.Second, func() error {
		e, err := dep.Registry().Resolve("vlink", "soap:sys")
		if err == nil && e.Node != host {
			err = fmt.Errorf("soap:sys resolves to %s, want %s", e.Node, host)
		}
		return err
	})
}

// soapSession is one application session: dial soap:sys by name, seven
// small echoes, one large echo, one module listing, close.
func soapSession(r *run, dep *deploy.WallDeployment, rng *rand.Rand, wantMods []string) {
	var st vlink.Stream
	r.call("dial", "gatekeeper.DialServiceOn", func() (err error) {
		st, err = dep.DialService("vlink", "soap:sys")
		return err
	}, func() (int, error) { return 0, nil })
	if st == nil {
		return
	}
	defer st.Close()
	for i := 0; i <= smallEchoes; i++ {
		n, name := smallEcho, "echo-small"
		if i == smallEchoes {
			n, name = largeEcho, "echo-large"
		}
		text := echoText(rng, n)
		var got []string
		r.call(name, "soap.Call", func() (err error) {
			got, err = soap.Call(st, "echo", text)
			return err
		}, func() (int, error) { return 2 * len(text), checkEcho(got, text) })
	}
	var mods []string
	r.call("modules", "soap.Call", func() (err error) {
		mods, err = soap.Call(st, "modules")
		return err
	}, func() (int, error) { return stringsBytes(mods), checkModules(mods, wantMods) })
}
