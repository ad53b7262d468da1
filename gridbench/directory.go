package main

// The directory workload: lookups against a sharded registry of tens of
// thousands of entries, with re-announces writing beside the reads, over
// several anti-entropy intervals. A replica's partition scan dominates
// here, so a cheaper lookup or digest shows on this workload and nowhere
// else; the re-announces catch a change that buys faster lookups with
// slower publishes.

import (
	"fmt"
	"math/rand/v2"
	"time"

	"padico/internal/deploy"
	"padico/internal/gatekeeper"
)

const (
	dirShards     = 8    // each shard's full snapshot (~0.5 MiB) stays under the 1 MiB frame
	dirPublishers = 2500 // × dirPerPub = 40,000 entries
	dirPerPub     = 16
	dirShared     = 2    // names per publisher drawn from the shared pool
	dirPool       = 2000 // shared names: most are published by two or three publishers
	batchLen      = 16   // queries in one LookupBatch flight
	dirGrids      = 4    // grids a run is split over, one after another
	dirRecoveries = 2    // kill-and-refill cycles of the second replica, per grid
	// dirRoundCycles is how many mix cycles one seat session drives before
	// its sessions are dropped and re-dialed (see controlRound).
	dirRoundCycles = 4
	sampleChecks   = 64 // restarted-replica answers checked per recovery
)

// The directory mix, per cycle of 50 calls, shuffled by the seed.
const (
	dirHit = iota
	dirMiss
	dirBatch
	dirAnnounce
)

var dirMix = [...]int{dirHit: 32, dirMiss: 8, dirBatch: 6, dirAnnounce: 4}
var dirOpNames = [...]string{"lookup-hit", "lookup-miss", "batch", "re-announce"}

func directoryConfigs() []deploy.DaemonConfig {
	zones := map[string]string{"r0": "a", "r1": "b"}
	groups := deploy.ShardPlacement(zones, dirShards)
	return []deploy.DaemonConfig{
		{Node: "r0", Zone: "a", ShardGroups: groups},
		{Node: "r1", Zone: "b", ShardGroups: groups},
	}
}

func runDirectory(r *run) error {
	cfgs := directoryConfigs()
	setup := func() (dirGrid, error) {
		g, err := bootGrid(cfgs, r.rec)
		if err != nil {
			return dirGrid{}, err
		}
		dep, err := attach(g, r.rec)
		if err == nil {
			err = waitUntil("directory grid ready", 10*time.Second, func() error { return published(dep, g) })
			if err != nil {
				dep.Close()
			}
		}
		if err != nil {
			g.close()
			return dirGrid{}, err
		}
		return dirGrid{g, dep}, nil
	}
	first, setupS, err := setupMedian(setup, dirGrid.close)
	if err != nil {
		return err
	}
	r.set("setup_s", "s", setupS)

	// The run is split over dirGrids grids, one after another, each loaded
	// afresh: how fast one replica scans its directory differs from grid to
	// grid by up to a third (memory layout), and a run must not hang on
	// one draw of it.
	dir := genDirectory(r.seed, dirPublishers, dirPerPub, dirShared, dirPool)
	rng := newRand(r.seed, streamDirMix)
	var rates, times, mbs []float64
	for gi := 0; gi < dirGrids; gi++ {
		dg := first
		if gi > 0 {
			if dg, err = setup(); err != nil {
				return err
			}
		}
		last := gi == dirGrids-1
		err := directoryOn(r, dg, dir, rng, r.seconds/dirGrids, &rates, &times, &mbs, last)
		dg.close()
		if err != nil {
			return err
		}
	}
	r.set("announce_per_s", "entries/s", median(rates))
	if err := r.loopMetrics(); err != nil {
		return err
	}
	r.set("recovery_s", "s", median(times))
	r.set("gatekeeper.recovery_mb", "MB", median(mbs))
	return nil
}

// dirGrid is one directory grid with its seat.
type dirGrid struct {
	g   *grid
	dep *deploy.WallDeployment
}

func (dg dirGrid) close() { dg.dep.Close(); dg.g.close() }

// directoryOn runs one segment of the directory workload on dg: the bulk
// load, seconds of the call mix, and dirRecoveries crash recoveries of the
// second replica. On the last grid of a traced run it also runs the layer
// probes.
func directoryOn(r *run, dg dirGrid, dir *directory, rng *rand.Rand, seconds float64,
	rates, times, mbs *[]float64, last bool) error {
	g, dep := dg.g, dg.dep
	rc := dep.Registry()
	// The bulk load, then a pass of re-announces over the loaded directory.
	rs, err := announcePhase(r, dep, dir, 2)
	if err != nil {
		return err
	}
	*rates = append(*rates, rs...)
	// Let the second replica catch up before the loop, so every loop
	// starts from a converged directory instead of a bulk transfer.
	if err := converge(dep, g); err != nil {
		return err
	}

	cycle := make([]int, 0, 50)
	for op, n := range dirMix {
		for i := 0; i < n; i++ {
			cycle = append(cycle, op)
		}
	}
	hit := func() string { return dir.hits[rng.IntN(len(dir.hits))] }
	miss := func() string { return dir.misses[rng.IntN(len(dir.misses))] }
	err = r.loop(g, func() error {
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for round := 0; r.more(round, deadline); round++ {
			r.traceRound(round)
			// Fresh sessions for every round: the registry client's pooled
			// streams and the seat's mux sessions are dropped and re-dialed.
			rc.Close()
			dep.Host.DropSessions()
			r.round(dep, func() {
				for c := 0; c < dirRoundCycles; c++ {
					rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
					for _, op := range cycle {
						name := dirOpNames[op]
						switch op {
						case dirHit, dirMiss:
							q := hit()
							if op == dirMiss {
								q = miss()
							}
							var got []gatekeeper.Entry
							r.call(name, "gatekeeper.RegistryClient.Lookup", func() (err error) {
								got, err = rc.Lookup(benchKind, q)
								return err
							}, func() (int, error) {
								return len(q) + entriesBytes(got), checkEntries(got, dir.byName[q])
							})
						case dirBatch:
							qs := make([]gatekeeper.LookupQuery, batchLen)
							want := make([][]gatekeeper.Entry, batchLen)
							n := 0
							for i := range qs {
								q := hit()
								if i%5 == 4 {
									q = miss()
								}
								qs[i] = gatekeeper.LookupQuery{Kind: benchKind, Name: q}
								want[i] = dir.byName[q]
								n += len(q)
							}
							var got [][]gatekeeper.Entry
							r.call(name, "gatekeeper.RegistryClient.LookupBatch", func() (err error) {
								got, err = rc.LookupBatch(qs)
								return err
							}, func() (int, error) {
								for _, es := range got {
									n += entriesBytes(es)
								}
								return n, checkBatch(got, want)
							})
						case dirAnnounce:
							p := dir.pubs[rng.IntN(len(dir.pubs))]
							r.call(name, "gatekeeper.RegistryClient.PublishTTL", func() error {
								return rc.PublishTTL(p.node, p.entries, 0)
							}, func() (int, error) { return entriesBytes(p.entries), nil })
						}
					}
				}
			})
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Crash recovery: the second replica is killed and restarted empty on
	// its old endpoint. It has recovered when it holds the whole directory
	// again; sampled answers from it must then match the generator.
	if err := converge(dep, g); err != nil {
		return err
	}
	st, err := rc.StatusOf(g.ds[0].Node())
	if err != nil {
		return err
	}
	whole := st.Entries
	victim := g.ds[1].Node()
	for i := 0; i < dirRecoveries; i++ {
		err := r.op("recovery", func() error {
			start, err := g.restart(1, g.ds[1].Addr(), r.rec)
			if err != nil {
				return err
			}
			err = waitUntil("refill of "+victim, 60*time.Second, func() error {
				st, err := rc.StatusOf(victim)
				if err != nil {
					return err
				}
				if st.Entries < whole {
					return fmt.Errorf("%s holds %d of %d entries", victim, st.Entries, whole)
				}
				return nil
			})
			if err != nil {
				return err
			}
			*times = append(*times, time.Since(start).Seconds())
			*mbs = append(*mbs, float64(g.ds[1].Telemetry().Snapshot().Counter("wall.bytes_in"))/1e6)
			return nil
		})
		if err != nil {
			return err
		}
		for k := 0; k < sampleChecks; k++ {
			q := hit()
			if k%4 == 3 {
				q = miss()
			}
			err := r.op("recovered lookup", func() error {
				got, err := rc.LookupAt(victim, benchKind, q)
				if err != nil {
					return err
				}
				if err := checkEntries(got, dir.byName[q]); err != nil {
					r.wrong++
					return fmt.Errorf("%s after recovery, %s: %w", victim, q, err)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	if r.rec == nil || !last {
		return nil
	}
	// The probes' loop figures (unaccounted_us, trace overhead) need the
	// whole loop's counts, so the run's loop metrics come first.
	if err := r.loopMetrics(); err != nil {
		return err
	}
	return measureLayers(r, layerEnv{g: g, dep: dep, dir: dir, soapHost: 1,
		resolve: gatekeeper.LookupQuery{Kind: benchKind, Name: dir.hits[0]},
		// A lookup: one mux stream to the replica, its partition scan,
		// and one query's share of a batch answer's codec.
		path: func(m map[string]metric) float64 {
			return m["sockets.stream_rtt_us"].Value + m["gatekeeper.partition_lookup_us"].Value +
				m["gatekeeper.answer_codec_us"].Value/batchLen
		}})
}

// converge pushes one anti-entropy round from every replica and waits until
// they all hold as many entries as the first.
func converge(dep *deploy.WallDeployment, g *grid) error {
	var reps []*deploy.Daemon
	for _, d := range g.ds {
		if d.Reg != nil {
			d.Reg.SyncNow()
			reps = append(reps, d)
		}
	}
	return waitUntil("replicas converged", 30*time.Second, func() error {
		var want int
		for i, d := range reps {
			st, err := dep.Registry().StatusOf(d.Node())
			if err != nil {
				return err
			}
			if i == 0 {
				want = st.Entries
			} else if st.Entries != want {
				return fmt.Errorf("%s holds %d entries, %s %d", d.Node(), st.Entries, reps[0].Node(), want)
			}
		}
		return nil
	})
}
