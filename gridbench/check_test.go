package main

import (
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"padico/internal/gatekeeper"
)

func testDir() *directory { return genDirectory(7, 200, 16, 2, 40) }

// sharedName returns a name several publishers announce.
func sharedName(t *testing.T, d *directory) string {
	for _, n := range d.hits {
		if len(d.byName[n]) >= 3 {
			return n
		}
	}
	t.Fatal("no name with three publishers")
	return ""
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b := testDir(), testDir()
	if !slices.Equal(a.hits, b.hits) || !slices.Equal(a.misses, b.misses) {
		t.Fatal("the same seed generated different names")
	}
	if c := genDirectory(8, 200, 16, 2, 40); slices.Equal(a.hits, c.hits) {
		t.Fatal("another seed generated the same names")
	}
	if a.size() != 200*16 {
		t.Fatalf("size = %d, want %d", a.size(), 200*16)
	}
	for _, m := range a.misses {
		if _, ok := a.byName[m]; ok {
			t.Fatalf("miss %s is published", m)
		}
	}
	for n, es := range a.byName {
		if !slices.IsSortedFunc(es, func(x, y gatekeeper.Entry) int { return strings.Compare(x.Node, y.Node) }) {
			t.Fatalf("expected answer for %s is not in node order", n)
		}
	}
}

func TestCheckEntriesAcceptsTheModel(t *testing.T) {
	d := testDir()
	n := sharedName(t, d)
	if err := checkEntries(slices.Clone(d.byName[n]), d.byName[n]); err != nil {
		t.Fatal(err)
	}
	if err := checkEntries(nil, d.byName[d.misses[0]]); err != nil {
		t.Fatalf("empty miss rejected: %v", err)
	}
}

func TestCheckEntriesRejectsCorruptAnswers(t *testing.T) {
	d := testDir()
	n := sharedName(t, d)
	want := d.byName[n]
	corrupt := map[string]func([]gatekeeper.Entry) []gatekeeper.Entry{
		"dropped entry": func(es []gatekeeper.Entry) []gatekeeper.Entry { return es[1:] },
		"extra entry":   func(es []gatekeeper.Entry) []gatekeeper.Entry { return append(es, es[0]) },
		"reordered": func(es []gatekeeper.Entry) []gatekeeper.Entry {
			es[0], es[1] = es[1], es[0]
			return es
		},
		"changed character": func(es []gatekeeper.Entry) []gatekeeper.Entry {
			es[1].Name = es[1].Name[:len(es[1].Name)-1] + "#"
			return es
		},
		"wrong service": func(es []gatekeeper.Entry) []gatekeeper.Entry {
			es[0].Service = "bench:other"
			return es
		},
		"leased": func(es []gatekeeper.Entry) []gatekeeper.Entry {
			es[0].TTLMillis = 5000
			return es
		},
	}
	for name, f := range corrupt {
		if err := checkEntries(f(slices.Clone(want)), want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := checkEntries(want[:1], nil); err == nil {
		t.Error("a miss answered with an entry was accepted")
	}
}

func TestCheckBatchRejectsCorruptBatches(t *testing.T) {
	d := testDir()
	want := [][]gatekeeper.Entry{d.byName[d.hits[0]], d.byName[d.hits[1]], nil, d.byName[sharedName(t, d)]}
	clone := func() [][]gatekeeper.Entry {
		out := make([][]gatekeeper.Entry, len(want))
		for i, es := range want {
			out[i] = slices.Clone(es)
		}
		return out
	}
	if err := checkBatch(clone(), want); err != nil {
		t.Fatal(err)
	}
	reordered := clone()
	reordered[0], reordered[1] = reordered[1], reordered[0]
	if err := checkBatch(reordered, want); err == nil {
		t.Error("reordered batch accepted")
	}
	short := clone()[:3]
	if err := checkBatch(short, want); err == nil {
		t.Error("batch missing an answer accepted")
	}
	dropped := clone()
	dropped[3] = dropped[3][1:]
	if err := checkBatch(dropped, want); err == nil {
		t.Error("batch with a dropped entry accepted")
	}
}

func TestCheckEcho(t *testing.T) {
	text := echoText(newRand(3, streamEcho), 32)
	if err := checkEcho([]string{text}, text); err != nil {
		t.Fatal(err)
	}
	b := []byte(text)
	b[len(b)-1] ^= 1
	if err := checkEcho([]string{string(b)}, text); err == nil {
		t.Error("changed character accepted")
	}
	if err := checkEcho([]string{text[:len(text)-1]}, text); err == nil {
		t.Error("truncated echo accepted")
	}
	if err := checkEcho([]string{text, text}, text); err == nil {
		t.Error("two parameters accepted")
	}
}

func TestEchoTextShape(t *testing.T) {
	r := newRand(5, streamEcho)
	for _, n := range []int{32, 4096} {
		s := echoText(r, n)
		if len(s) != n || !utf8.ValidString(s) {
			t.Fatalf("echoText(%d) = %d bytes, valid UTF-8 %v", n, len(s), utf8.ValidString(s))
		}
		if !strings.ContainsAny(s, `<>&"'`) || utf8.RuneCountInString(s) == len(s) {
			t.Fatalf("echoText(%d) lacks XML specials or non-ASCII: %q", n, s)
		}
	}
}

func TestCheckModules(t *testing.T) {
	want := []string{"soap", "vlink"}
	if err := checkModules([]string{"soap", "vlink"}, want); err != nil {
		t.Fatal(err)
	}
	for _, got := range [][]string{{"vlink"}, {"vlink", "soap"}, {"soap", "vlink", "hla"}, {"soap", "vlonk"}} {
		if err := checkModules(got, want); err == nil {
			t.Errorf("module table %v accepted for %v", got, want)
		}
	}
}

func TestCheckFlight(t *testing.T) {
	mods := []string{"hla", "vlink"}
	reqs := []*gatekeeper.Request{
		{Op: gatekeeper.OpPing, TraceID: "t1"},
		{Op: gatekeeper.OpListModules, TraceID: "t2"},
		{Op: gatekeeper.OpStats, TraceID: "t3"},
	}
	answers := func() []*gatekeeper.Response {
		return []*gatekeeper.Response{
			{OK: true, TraceID: "t1"},
			{OK: true, TraceID: "t2", Modules: slices.Clone(mods)},
			{OK: true, TraceID: "t3", Stats: &gatekeeper.Stats{Node: "c1", Modules: slices.Clone(mods)}},
		}
	}
	if err := checkFlight("c1", reqs, answers(), mods); err != nil {
		t.Fatal(err)
	}
	reordered := answers()
	reordered[0], reordered[1] = reordered[1], reordered[0]
	if err := checkFlight("c1", reqs, reordered, mods); err == nil {
		t.Error("reordered answers accepted")
	}
	// Two pings swapped: only the echoed trace IDs tell the order.
	pings := []*gatekeeper.Request{{Op: gatekeeper.OpPing, TraceID: "p1"}, {Op: gatekeeper.OpPing, TraceID: "p2"}}
	swapped := []*gatekeeper.Response{{OK: true, TraceID: "p2"}, {OK: true, TraceID: "p1"}}
	if err := checkFlight("c1", pings, swapped, mods); err == nil {
		t.Error("swapped ping answers accepted")
	}
	if err := checkFlight("c1", reqs, answers()[:2], mods); err == nil {
		t.Error("a missing answer accepted")
	}
	failed := answers()
	failed[0].OK = false
	if err := checkFlight("c1", reqs, failed, mods); err == nil {
		t.Error("a failed request accepted")
	}
	wrongMods := answers()
	wrongMods[1].Modules = []string{"vlink"}
	if err := checkFlight("c1", reqs, wrongMods, mods); err == nil {
		t.Error("a wrong module table accepted")
	}
	if err := checkFlight("c2", reqs, answers(), mods); err == nil {
		t.Error("stats of another node accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
