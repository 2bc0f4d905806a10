package waketrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Options tunes Analyze.
type Options struct {
	// StallThreshold flags any hop whose post→consume gap exceeds it.
	// Zero disables stall detection.
	StallThreshold time.Duration
	// TopHops bounds the slowest-hop attribution list (default 10).
	TopHops int
}

// FlowReport is the per-broadcast analysis of one wake DAG.
type FlowReport struct {
	Flow       uint64         `json:"flow"`
	CV         string         `json:"cv,omitempty"`
	Batch      int64          `json:"batch"`
	HasRoot    bool           `json:"has_root"`
	Hops       int            `json:"hops"`
	Consumed   int            `json:"consumed"`
	ConsumedBy map[string]int `json:"consumed_by,omitempty"`
	Chains     int            `json:"chains"` // notifier-posted heads (the fan-out)
	MaxDepth   int64          `json:"max_depth"`
	Orphans    int            `json:"orphans"`
	TxnSteps   int            `json:"txn_steps"`

	// Critical path: root's mint to the last consume, and the chain that
	// realized it.
	SpanNS       int64      `json:"span_ns"`
	CriticalPath []PathStep `json:"critical_path,omitempty"`
}

// PathStep is one hop along a critical path.
type PathStep struct {
	Node      uint64 `json:"node"`
	Hop       int64  `json:"hop"`
	By        string `json:"by,omitempty"`
	LatencyNS int64  `json:"latency_ns"` // post → consume of this hop
}

// SlowHop is one entry of the slowest-hop attribution table.
type SlowHop struct {
	Flow      uint64 `json:"flow"`
	CV        string `json:"cv,omitempty"`
	Node      uint64 `json:"node"`
	Hop       int64  `json:"hop"`
	By        string `json:"by,omitempty"`
	LatencyNS int64  `json:"latency_ns"`
}

// Stall is a hop whose post→consume gap exceeded the threshold, or a
// posted hop that was never consumed at all (gap -1).
type Stall struct {
	Flow  uint64 `json:"flow"`
	Node  uint64 `json:"node"`
	Hop   int64  `json:"hop"`
	GapNS int64  `json:"gap_ns"` // -1: posted but never consumed
}

// Report is the full analysis cvtrace renders.
type Report struct {
	Flows    int `json:"flows"`
	Hops     int `json:"hops"`
	Consumed int `json:"consumed"`
	Orphans  int `json:"orphans"`

	// DepthDist counts consumed wakes per 1-based chain depth (all 1
	// when every hop is notifier-posted).
	DepthDist map[int64]int `json:"depth_dist,omitempty"`
	// FanoutDist counts flows per chain count (notifier-posted heads) —
	// the fan-out shape histogram.
	FanoutDist map[int]int `json:"fanout_dist,omitempty"`
	// HopP50/HopP99 summarize chained-hop (index >= 1) latency; zero
	// when no flow has a chained hop.
	HopP50NS int64 `json:"hop_p50_ns"`
	HopP99NS int64 `json:"hop_p99_ns"`

	PerFlow  []FlowReport `json:"per_flow"`
	Slowest  []SlowHop    `json:"slowest_hops,omitempty"`
	Stalls   []Stall      `json:"stalls,omitempty"`
	Problems []string     `json:"problems,omitempty"` // Check violations
}

// Analyze derives the full report from reconstructed DAGs.
func Analyze(dags []*DAG, opts Options) Report {
	if opts.TopHops <= 0 {
		opts.TopHops = 10
	}
	rep := Report{
		Flows:      len(dags),
		DepthDist:  map[int64]int{},
		FanoutDist: map[int]int{},
	}
	var chained []int64 // chained-hop latencies for the percentile summary
	var slow []SlowHop
	for _, d := range dags {
		total, by := d.Consumed()
		fr := FlowReport{
			Flow:       d.Flow,
			CV:         d.CV,
			Batch:      d.Batch,
			HasRoot:    d.HasRoot,
			Hops:       len(d.Hops),
			Consumed:   total,
			ConsumedBy: by,
			Chains:     len(d.Roots),
			MaxDepth:   d.MaxDepth(),
			Orphans:    len(d.Orphans),
			TxnSteps:   len(d.Txns),
		}
		rep.Hops += len(d.Hops)
		rep.Consumed += total
		rep.Orphans += len(d.Orphans)
		rep.FanoutDist[len(d.Roots)]++
		for _, h := range d.Hops {
			if !h.Consumed {
				if opts.StallThreshold > 0 {
					rep.Stalls = append(rep.Stalls, Stall{Flow: d.Flow, Node: h.Node, Hop: h.Index, GapNS: -1})
				}
				continue
			}
			rep.DepthDist[h.Index+1]++
			lat := h.Latency()
			if h.Index >= 1 {
				chained = append(chained, lat)
			}
			slow = append(slow, SlowHop{Flow: d.Flow, CV: d.CV, Node: h.Node, Hop: h.Index, By: h.By, LatencyNS: lat})
			if opts.StallThreshold > 0 && lat > opts.StallThreshold.Nanoseconds() {
				rep.Stalls = append(rep.Stalls, Stall{Flow: d.Flow, Node: h.Node, Hop: h.Index, GapNS: lat})
			}
		}
		if path := d.CriticalPath(); len(path) > 0 {
			last := path[len(path)-1]
			fr.SpanNS = last.ConsTS - d.RootTS
			for _, h := range path {
				fr.CriticalPath = append(fr.CriticalPath, PathStep{
					Node: h.Node, Hop: h.Index, By: h.By, LatencyNS: h.Latency(),
				})
			}
		}
		rep.PerFlow = append(rep.PerFlow, fr)
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].LatencyNS > slow[j].LatencyNS })
	if len(slow) > opts.TopHops {
		slow = slow[:opts.TopHops]
	}
	rep.Slowest = slow
	sort.Slice(rep.Stalls, func(i, j int) bool { return rep.Stalls[i].GapNS > rep.Stalls[j].GapNS })
	rep.HopP50NS = quantile(chained, 0.50)
	rep.HopP99NS = quantile(chained, 0.99)
	rep.Problems = Check(dags)
	return rep
}

// quantile returns the q-quantile of vals (nearest-rank), or 0 if empty.
// vals is sorted in place.
func quantile(vals []int64, q float64) int64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	idx := int(q * float64(len(vals)-1))
	return vals[idx]
}

// WriteJSON renders the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the human-readable report.
func (r Report) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "wake flows: %d   hops: %d   consumed: %d   orphans: %d\n",
		r.Flows, r.Hops, r.Consumed, r.Orphans)
	if r.HopP50NS > 0 || r.HopP99NS > 0 {
		fmt.Fprintf(w, "chained hop latency: p50 %s   p99 %s\n", ns(r.HopP50NS), ns(r.HopP99NS))
	}
	if len(r.DepthDist) > 0 {
		fmt.Fprintf(w, "\nchain depth distribution (consumed wakes per depth):\n")
		for _, d := range sortedKeys64(r.DepthDist) {
			fmt.Fprintf(w, "  depth %2d: %d\n", d, r.DepthDist[d])
		}
	}
	if len(r.FanoutDist) > 0 {
		fmt.Fprintf(w, "\nfan-out shape (flows per chain count):\n")
		for _, f := range sortedKeys(r.FanoutDist) {
			fmt.Fprintf(w, "  %2d chain(s): %d flow(s)\n", f, r.FanoutDist[f])
		}
	}
	fmt.Fprintf(w, "\nper-broadcast critical paths:\n")
	for _, fr := range r.PerFlow {
		cv := fr.CV
		if cv == "" {
			cv = "-"
		}
		fmt.Fprintf(w, "  flow %-6d cv %-20s batch %-4d chains %-3d depth %-3d consumed %-4d span %s\n",
			fr.Flow, cv, fr.Batch, fr.Chains, fr.MaxDepth, fr.Consumed, ns(fr.SpanNS))
		if len(fr.CriticalPath) > 0 {
			fmt.Fprintf(w, "    critical path:")
			for _, s := range fr.CriticalPath {
				fmt.Fprintf(w, "  node %d (hop %d, %s, %s)", s.Node, s.Hop, s.By, ns(s.LatencyNS))
			}
			fmt.Fprintln(w)
		}
		for k, v := range fr.ConsumedBy {
			if k != "waiter" && v > 0 {
				fmt.Fprintf(w, "    consumed by %s: %d\n", k, v)
			}
		}
	}
	if len(r.Slowest) > 0 {
		fmt.Fprintf(w, "\nslowest hops:\n")
		for _, s := range r.Slowest {
			fmt.Fprintf(w, "  flow %-6d node %-6d hop %-3d by %-8s %s\n",
				s.Flow, s.Node, s.Hop, s.By, ns(s.LatencyNS))
		}
	}
	if len(r.Stalls) > 0 {
		fmt.Fprintf(w, "\nstalls (hop gap over threshold):\n")
		for _, s := range r.Stalls {
			gap := ns(s.GapNS)
			if s.GapNS < 0 {
				gap = "never consumed"
			}
			fmt.Fprintf(w, "  flow %-6d node %-6d hop %-3d %s\n", s.Flow, s.Node, s.Hop, gap)
		}
	}
	if len(r.Problems) > 0 {
		fmt.Fprintf(w, "\nSTRUCTURAL PROBLEMS:\n")
		for _, p := range r.Problems {
			fmt.Fprintf(w, "  %s\n", p)
		}
	}
	return nil
}

func ns(v int64) string {
	if v < 0 {
		return "-"
	}
	return time.Duration(v).String()
}

func sortedKeys64(m map[int64]int) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedKeys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
