package main

// The checkers compare the program's answers with what the benchmark's own
// generator says they must be, or with a property the operation must have.
// None compares against a stored copy of an earlier answer. A checker that
// returns an error turns the call into a failed operation.

import (
	"fmt"
	"slices"

	"padico/internal/gatekeeper"
)

// checkEntries requires got to be exactly want: the same entries, field by
// field, in the same (node, kind, name) order, all permanent (no lease left
// to report). An empty want is a miss, which must come back empty.
func checkEntries(got, want []gatekeeper.Entry) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.TTLMillis != 0 {
			return fmt.Errorf("entry %d (%s/%s) carries a lease of %d ms; it was published without one", i, g.Node, g.Name, g.TTLMillis)
		}
		g.TTLMillis = 0
		if g != w {
			return fmt.Errorf("entry %d = %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// checkBatch requires every positional answer of a batch to match its
// query's expected entries.
func checkBatch(got, want [][]gatekeeper.Entry) error {
	if len(got) != len(want) {
		return fmt.Errorf("batch answered %d queries, want %d", len(got), len(want))
	}
	for i := range want {
		if err := checkEntries(got[i], want[i]); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}

// checkModules requires a module table to equal the set the benchmark
// configured and loaded, in the sorted order the process reports it.
func checkModules(got, want []string) error {
	if !slices.Equal(got, want) {
		return fmt.Errorf("modules = %v, want %v", got, want)
	}
	return nil
}

// checkEcho requires an echo to return exactly the text sent, as its one
// parameter.
func checkEcho(got []string, sent string) error {
	if len(got) != 1 {
		return fmt.Errorf("echo returned %d parameters, want 1", len(got))
	}
	if got[0] != sent {
		return fmt.Errorf("echo returned %q, want %q", got[0], sent)
	}
	return nil
}

// checkFlight requires a pipelined flight to answer one OK response per
// request, in request order — each response echoes its own request's trace
// ID — and each answer to hold what its operation must: a module table
// equal to want for list-modules, stats of the right node for stats.
func checkFlight(node string, reqs []*gatekeeper.Request, resps []*gatekeeper.Response, want []string) error {
	if len(resps) != len(reqs) {
		return fmt.Errorf("flight of %d answered %d", len(reqs), len(resps))
	}
	for i, req := range reqs {
		resp := resps[i]
		if !resp.OK {
			return fmt.Errorf("request %d (%s) failed: %s", i, req.Op, resp.Error)
		}
		if resp.TraceID != req.TraceID {
			return fmt.Errorf("response %d carries trace %q, want %q: answers out of order", i, resp.TraceID, req.TraceID)
		}
		switch req.Op {
		case gatekeeper.OpListModules:
			if err := checkModules(resp.Modules, want); err != nil {
				return fmt.Errorf("request %d: %w", i, err)
			}
		case gatekeeper.OpStats:
			if err := checkStats(resp.Stats, node, want); err != nil {
				return fmt.Errorf("request %d: %w", i, err)
			}
		}
	}
	return nil
}

// checkStats requires a stats report to come from node and list its
// expected module table.
func checkStats(st *gatekeeper.Stats, node string, want []string) error {
	if st == nil {
		return fmt.Errorf("no stats in the answer")
	}
	if st.Node != node {
		return fmt.Errorf("stats from %q, want %q", st.Node, node)
	}
	return checkModules(st.Modules, want)
}

// entriesBytes is the payload an entry list carries: the bytes of its
// identifying fields, independent of how the wire encodes them.
func entriesBytes(es []gatekeeper.Entry) int {
	n := 0
	for _, e := range es {
		n += len(e.Node) + len(e.Kind) + len(e.Name) + len(e.Service) + len(e.Addr)
	}
	return n
}

// stringsBytes is the payload of a list of strings.
func stringsBytes(ss []string) int {
	n := 0
	for _, s := range ss {
		n += len(s)
	}
	return n
}
