package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"unicode/utf8"

	"padico/internal/gatekeeper"
)

// newRand returns the benchmark's PRNG for one input stream of one seed:
// every input a run sends derives from --seed, and nothing else.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// Input streams, one per kind of generated input, so that sizing one
// workload never shifts another's inputs.
const (
	streamDirectory uint64 = iota + 1
	streamDirMix
	streamControl
	streamEcho
)

const letters = "abcdefghijklmnopqrstuvwxyz"

func randName(r *rand.Rand, prefix string, n int) string {
	var b strings.Builder
	b.WriteString(prefix)
	for i := 0; i < n; i++ {
		b.WriteByte(letters[r.IntN(len(letters))])
	}
	return b.String()
}

// benchKind is the registry kind every synthetic publisher announces under;
// benchService makes the entries dialable, so Resolve accepts them.
const (
	benchKind    = "bench"
	benchService = "bench:svc"
)

// directory is the generator's model of a synthetic directory: which
// publisher announces which names, and therefore the exact answer — entries
// in the registry's canonical (node, kind, name) order — of every lookup.
type directory struct {
	pubs   []publisher
	byName map[string][]gatekeeper.Entry
	hits   []string // every published name, in generation order
	misses []string // names guaranteed absent from the directory
}

type publisher struct {
	node    string
	entries []gatekeeper.Entry
}

// genDirectory builds pubs publishers of perPub names each. Most names are
// unique to their publisher; shared of them per publisher come from a pool
// several publishers draw on, so a lookup may answer several entries whose
// order the registry must get right.
func genDirectory(seed int64, pubs, perPub, shared, pool int) *directory {
	r := newRand(seed, streamDirectory)
	used := map[string]bool{}
	fresh := func(prefix string) string {
		for {
			n := randName(r, prefix, 10)
			if !used[n] {
				used[n] = true
				return n
			}
		}
	}
	sharedPool := make([]string, pool)
	for i := range sharedPool {
		sharedPool[i] = fresh("s.")
	}
	d := &directory{byName: map[string][]gatekeeper.Entry{}}
	for i := 0; i < pubs; i++ {
		p := publisher{node: fmt.Sprintf("pub%05d", i)}
		names := make([]string, 0, perPub)
		picked := map[int]bool{}
		for len(names) < shared {
			k := r.IntN(pool)
			if !picked[k] {
				picked[k] = true
				names = append(names, sharedPool[k])
			}
		}
		for len(names) < perPub {
			names = append(names, fresh("u."))
		}
		for _, n := range names {
			e := gatekeeper.Entry{Node: p.node, Kind: benchKind, Name: n, Service: benchService}
			p.entries = append(p.entries, e)
			d.byName[n] = append(d.byName[n], e)
		}
		d.pubs = append(d.pubs, p)
	}
	for n := range d.byName {
		d.hits = append(d.hits, n)
	}
	sort.Strings(d.hits) // map order is random; the seed alone must fix the inputs
	for _, list := range d.byName {
		sort.Slice(list, func(i, j int) bool { return list[i].Node < list[j].Node })
	}
	for i := 0; i < 1024; i++ {
		d.misses = append(d.misses, fresh("m."))
	}
	return d
}

// size is the number of entries the directory holds.
func (d *directory) size() int {
	n := 0
	for _, p := range d.pubs {
		n += len(p.entries)
	}
	return n
}

// echoAlphabet mixes plain ASCII, the five XML special characters and
// multi-byte UTF-8, so an echo exercises escaping and decoding both ways.
var echoAlphabet = []rune("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789<>&\"'éßüøπ€中文語🙂")

// echoText returns n bytes of UTF-8 text drawn from echoAlphabet. It
// always holds every XML special character and some non-ASCII, and is
// padded with ASCII to exactly n bytes.
func echoText(r *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString(`<>&"'é中`)
	for b.Len() < n {
		c := echoAlphabet[r.IntN(len(echoAlphabet))]
		if b.Len()+utf8.RuneLen(c) > n {
			c = 'x'
		}
		b.WriteRune(c)
	}
	return b.String()
}
