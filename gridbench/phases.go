package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"padico/internal/deploy"
)

// op counts one operation that is not part of the timed loop (an announce,
// a recovery cycle): it is attempted, and it fails when f errs.
func (r *run) op(name string, f func() error) error {
	r.attempted++
	if err := f(); err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "gridbench: %s failed: %v\n", name, err)
		}
		return err
	}
	return nil
}

// announceChunk is how many announces one throughput sample spans.
const announceChunk = 200

// announcePhase publishes every publisher of dir reps times over through
// the seat's registry client, permanently (no lease), and returns the
// entries announced per second of each chunk of announceChunk announces.
// Each chunk runs on freshly dialed sessions: one long session settles into
// one latency mode for its life. It then checks a sample of names against
// the generator. Re-announcing a publisher's identical set leaves the
// directory unchanged, so the model stays exact.
func announcePhase(r *run, dep *deploy.WallDeployment, dir *directory, reps int) ([]float64, error) {
	runtime.GC() // start from a clean heap, not the set-up's garbage
	rc := dep.Registry()
	var rates []float64
	start := time.Now()
	entries, n := 0, 0
	for rep := 0; rep < reps; rep++ {
		for _, p := range dir.pubs {
			err := r.op("announce", func() error {
				return r.rec.do(r.rec.root("announce"), "gatekeeper.RegistryClient.PublishTTL", func() error {
					return rc.PublishTTL(p.node, p.entries, 0)
				})
			})
			if err != nil {
				return nil, err
			}
			entries += len(p.entries)
			if n++; n%announceChunk == 0 {
				rates = append(rates, float64(entries)/time.Since(start).Seconds())
				rc.Close()
				dep.Host.DropSessions()
				start, entries = time.Now(), 0
			}
		}
	}
	if len(rates) == 0 {
		rates = append(rates, float64(entries)/time.Since(start).Seconds())
	}
	step := len(dir.hits)/64 + 1
	for i := 0; i < len(dir.hits); i += step {
		name := dir.hits[i]
		err := r.op("announce check", func() error {
			got, err := rc.Lookup(benchKind, name)
			if err != nil {
				return err
			}
			if err := checkEntries(got, dir.byName[name]); err != nil {
				r.wrong++
				return fmt.Errorf("lookup %s after announce: %w", name, err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return rates, nil
}
