package obsv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// Handler returns the opt-in /debug/nexusz HTTP handler. src is called on
// every request and returns one Snapshot per context to render; the handler
// serves a human-readable text page by default and JSON when the request
// asks for it (?format=json, or an Accept header naming application/json).
//
// The handler is deliberately not registered anywhere by default: exposing
// internals over HTTP is the operator's decision, e.g.
//
//	mux.Handle("/debug/nexusz", obsv.Handler(func() []Snapshot {...}))
func Handler(src func() []Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snaps := src()
		if r.URL.Query().Get("format") == "json" ||
			strings.Contains(r.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(snaps) // a failed write is a client gone mid-response
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for i := range snaps {
			writeText(w, &snaps[i])
		}
	})
}

func writeText(w http.ResponseWriter, s *Snapshot) {
	fmt.Fprintf(w, "context %d (process %s)\n", s.Context, s.Process)
	fmt.Fprintf(w, "  observability: stats=%v trace=%v (events %d buffered / %d total, cap %d)\n",
		s.StatsEnabled, s.TraceEnabled, s.TraceBuffered, s.TraceTotal, s.TraceCapacity)
	if len(s.Latencies) > 0 {
		fmt.Fprintf(w, "  %-10s %-8s %10s %12s %12s %12s %12s\n",
			"method", "stage", "count", "mean", "p50", "p95", "p99")
		for _, l := range s.Latencies {
			fmt.Fprintf(w, "  %-10s %-8s %10d %12s %12s %12s %12s\n",
				l.Method, l.Stage, l.Count, l.Mean, l.P50, l.P95, l.P99)
		}
	}
	if len(s.Cluster) > 0 {
		fmt.Fprintf(w, "  cluster membership (%d records):\n", len(s.Cluster))
		fmt.Fprintf(w, "  %-10s %-12s %6s %-6s %-24s %s\n",
			"context", "partition", "seq", "state", "methods", "route")
		for _, m := range s.Cluster {
			state := "live"
			if m.Tombstone {
				state = "dead"
			} else if m.Forwarder {
				state = "relay"
			}
			route := "direct"
			if m.Via != 0 {
				route = fmt.Sprintf("via %d", m.Via)
			}
			fmt.Fprintf(w, "  %-10d %-12s %6d %-6s %-24s %s\n",
				m.Context, m.Partition, m.Seq, state, m.Methods, route)
		}
	}
	// Counters render sorted: the copy is taken from the snapshot map here,
	// outside any lock the producing context holds.
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  counter %-36s %d\n", k, s.Counters[k])
	}
	fmt.Fprintln(w)
}
