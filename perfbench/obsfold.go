package main

import (
	"sort"
	"strings"

	"repro/internal/obs"
)

// virtLayers are the span-name prefixes of the request path whose
// virtual self time the traced runs split (<layer>.virt_share).
var virtLayers = []string{"net", "ltl", "er", "kvcache", "rpcnic", "svclb", "frontend"}

// obsSummary is what a traced run reads back from obs telemetry.
type obsSummary struct {
	Counters map[string]uint64
	Runtime  map[string]uint64
	// VirtSelf is virtual self time (ns) by span-name prefix.
	VirtSelf map[string]float64
	// QWait holds every captured net.qwait span duration (ns).
	QWait []float64
}

// summarizeObs folds the registry and every tracer of one run.
func summarizeObs(ctxs []*obs.Context) obsSummary {
	s := obsSummary{
		Counters: map[string]uint64{},
		Runtime:  map[string]uint64{},
		VirtSelf: map[string]float64{},
	}
	if len(ctxs) == 0 {
		return s
	}
	reg := ctxs[0].Registry
	for _, smp := range reg.Snapshot() {
		if smp.Kind == "counter" {
			s.Counters[smp.Name] = smp.N
		}
	}
	for _, smp := range reg.RuntimeSnapshot() {
		if smp.Kind == "counter" {
			s.Runtime[smp.Name] = smp.N
		}
	}
	for _, c := range ctxs {
		spans := c.Tracer.Spans()
		foldSelfTime(spans, s.VirtSelf)
		for _, sp := range spans {
			if sp.Name == "net.qwait" && sp.End >= sp.Start {
				s.QWait = append(s.QWait, float64(sp.End-sp.Start))
			}
		}
	}
	return s
}

// foldSelfTime adds each finished span's self time — its duration minus
// the part of it covered by its children — to acc under the span name's
// prefix (the text before the first dot).
func foldSelfTime(spans []obs.Span, acc map[string]float64) {
	type iv struct{ a, b int64 }
	children := map[obs.SpanID][]iv{}
	for _, sp := range spans {
		if sp.Parent != 0 && sp.End > sp.Start {
			children[sp.Parent] = append(children[sp.Parent], iv{sp.Start, sp.End})
		}
	}
	for _, sp := range spans {
		if sp.End <= sp.Start {
			continue // open span or instant event
		}
		covered := int64(0)
		if ch := children[sp.ID]; len(ch) > 0 {
			sort.Slice(ch, func(i, j int) bool { return ch[i].a < ch[j].a })
			cur := sp.Start
			for _, c := range ch {
				a, b := max64(c.a, cur), min64(c.b, sp.End)
				if b > a {
					covered += b - a
					cur = b
				}
			}
		}
		layer, _, _ := strings.Cut(sp.Name, ".")
		acc[layer] += float64(sp.End - sp.Start - covered)
	}
}

// setVirtShares reports each request-path layer's share of the folded
// virtual self time.
func setVirtShares(r *report, self map[string]float64) {
	total := 0.0
	for _, l := range virtLayers {
		total += self[l]
	}
	for _, l := range virtLayers {
		share := 0.0
		if total > 0 {
			share = self[l] / total
		}
		r.set(l+".virt_share", share, "share")
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
