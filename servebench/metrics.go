package main

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/durable"
)

// metricDef is one metric the benchmark reports. moves names the
// end-to-end metric and workload a per-layer metric should move.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the untraced metrics every workload reports. op_* is
// the latency of the workload's headline operation (FrontEnd.Solve on
// query, FrontEnd.Update on ingest, FrontEnd.TopK on mixed); the run
// log also prints it under its own name (solve_p50_ms, …). The tail is
// at tailPct. mem_peak_mb is the peak live heap above what the
// benchmark itself keeps (its inputs and the answers it checks).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "op_p50_ms", unit: "ms", better: "lower"},
	{name: "op_tail_ms", unit: "ms", better: "lower"},
	{name: "mem_peak_mb", unit: "MB", better: "lower"},
}

// perLayer are the traced metrics. A layer that does no work on a
// workload reports 0 for it.
var perLayer = []metricDef{
	{"serve.queue_wait_ms", "ms", "lower", "op_p50_ms on query"},
	{"serve.queue_wait_tail_ms", "ms", "lower", "op_tail_ms on query"},
	{"serve.batch_size", "count", "higher", "op_p50_ms and failed share on query"},
	{"serve.solve_self_ms", "ms", "lower", "op_p50_ms on query"},
	{"serve.shed", "count", "lower", "failed share on query"},
	{"serve.update_self_ms", "ms", "lower", "op_p50_ms on ingest"},
	{"core.batch_ms", "ms", "lower", "op_p50_ms on query"},
	{"core.batch_tail_ms", "ms", "lower", "op_tail_ms on query"},
	{"core.update_ms", "ms", "lower", "op_p50_ms and update_per_s on ingest, update_p50_ms on mixed"},
	{"core.update_self_ms", "ms", "lower", "op_p50_ms on ingest"},
	{"core.update_allocs", "count", "lower", "op_p50_ms and mem_peak_mb on ingest"},
	{"core.update_alloc_mb", "MB", "lower", "op_p50_ms and mem_peak_mb on ingest"},
	{"core.prepare_s", "s", "lower", "setup_s"},
	{"core.first_fixpoint_s", "s", "lower", "setup_s"},
	{"kernel.rounds_per_batch", "count", "lower", "op_p50_ms on query"},
	{"kernel.rows_relaxed_per_update", "count", "lower", "op_p50_ms and op_tail_ms on ingest"},
	{"kernel.queue_peak", "count", "lower", "op_p50_ms and op_tail_ms on ingest"},
	{"kernel.computed_gbps", "GB/s", "higher", "op_p50_ms on query"},
	{"durable.wal_bytes_per_update", "B", "lower", "op_p50_ms and op_tail_ms on ingest"},
	{"durable.fsyncs_per_update", "count", "lower", "op_p50_ms and op_tail_ms on ingest"},
	{"durable.fsync_ms", "ms", "lower", "op_p50_ms and op_tail_ms on ingest"},
	{"durable.snapshot_mb", "MB", "lower", "setup_s"},
	{"durable.snapshot_s", "s", "lower", "setup_s"},
	{"runtime.gc_cycles", "count", "lower", "update_tail_ms and op_tail_ms on mixed"},
	{"runtime.gc_cpu_frac", "frac", "lower", "update_tail_ms and op_tail_ms on mixed"},
}

// measured is everything one measurement (set-ups plus phase) saw.
type measured struct {
	setups []time.Duration
	ph     *phase
	checks []check
}

func (m *measured) correct() bool {
	for _, c := range m.checks {
		if c.err != nil {
			return false
		}
	}
	return true
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndValues computes the end-to-end metrics of one measurement.
func (m *measured) endToEndValues(w workload) map[string]float64 {
	l := summarize(m.ph.lat[w.headline()])
	return map[string]float64{
		"setup_s":     median(seconds(m.setups)),
		"op_p50_ms":   l.p50,
		"op_tail_ms":  l.tail,
		"mem_peak_mb": m.ph.memPeakMB,
	}
}

// layerValues computes the per-layer metrics from a traced
// measurement's spans and counters.
func layerValues(spans []span, m *measured, in *inputs) map[string]float64 {
	byID := make(map[int64]span, len(spans))
	kids := map[int64][]span{}
	for _, s := range spans {
		byID[s.ID] = s
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := func(s span) float64 { return ms(selfTime(s, kids[s.ID])) }
	// inSetup reports whether a span descends from a set-up span.
	var inSetup func(s span) bool
	inSetup = func(s span) bool {
		if s.Name == "setup" {
			return true
		}
		p, ok := byID[s.Parent]
		return ok && inSetup(p)
	}

	var queue, solveSelf, batchMS, updSelfServe, coreUpd, coreUpdSelf, rows, allocs, allocMB, fsync []float64
	var prepare, firstFix, snapMB, snapS []float64
	var walBytes, syncs, updates float64
	var batchWidth []float64
	var beliefBytes float64 // belief arrays read and written, summed over request-rounds
	var batchTime time.Duration
	seenBatch := map[int64]bool{}
	rowBytes := float64(in.g.N() * classes * 8)
	for _, s := range spans {
		switch s.Name {
		case "serve.queue":
			queue = append(queue, ms(s.dur()))
		case "serve.Solve":
			solveSelf = append(solveSelf, self(s))
		case "core.SolveBatch":
			// Each request reads its explicit beliefs and the previous
			// iterate and writes the next one every round.
			beliefBytes += 3 * rowBytes * float64(s.Rounds)
			if !seenBatch[s.Batch] {
				seenBatch[s.Batch] = true
				batchMS = append(batchMS, ms(s.dur()))
				batchWidth = append(batchWidth, float64(s.Width))
				batchTime += s.dur()
			}
		case "serve.Update":
			if s.Parent == 0 {
				updSelfServe = append(updSelfServe, self(s))
			}
		case "core.Update":
			if inSetup(s) {
				firstFix = append(firstFix, s.dur().Seconds())
				continue
			}
			updates++
			coreUpd = append(coreUpd, ms(s.dur()))
			coreUpdSelf = append(coreUpdSelf, self(s))
			rows = append(rows, float64(s.Rows))
			allocs = append(allocs, float64(s.Allocs))
			allocMB = append(allocMB, float64(s.Bytes)/1e6)
			for _, d := range kids[s.ID] {
				switch d.Name {
				case "durable.write":
					if d.File == durable.WALFile {
						walBytes += float64(d.Bytes)
					}
				case "durable.sync", "durable.syncdir":
					syncs++
					if d.Name == "durable.sync" {
						fsync = append(fsync, ms(d.dur()))
					}
				}
			}
		case "core.Prepare":
			prepare = append(prepare, s.dur().Seconds())
			var bytes float64
			var busy time.Duration
			for _, d := range kids[s.ID] {
				bytes += float64(d.Bytes)
				busy += d.dur()
			}
			snapMB = append(snapMB, bytes/1e6)
			snapS = append(snapS, busy.Seconds())
		}
	}

	ph := m.ph
	f0, f1 := ph.front[0], ph.front[1]
	shed := (f1.ShedOverload + f1.ShedBudget + f1.ShedDraining + f1.Expired) -
		(f0.ShedOverload + f0.ShedBudget + f0.ShedDraining + f0.Expired)
	s0, s1 := ph.solver[0], ph.solver[1]
	var roundsPerBatch, gbps float64
	if b := s1.Batches - s0.Batches; b > 0 {
		roundsPerBatch = float64(s1.Iterations-s0.Iterations) / float64(b)
	}
	if batchTime > 0 {
		// 12 B per stored entry (value and column index) per chunk round.
		adj := 12 * float64(in.nnz) * float64(s1.Iterations-s0.Iterations)
		gbps = (adj + beliefBytes) / batchTime.Seconds() / 1e9
	}
	perUpdate := func(x float64) float64 {
		if updates == 0 {
			return 0
		}
		return x / updates
	}
	var gcFrac float64
	if cpu := ph.gc[1].allCPU - ph.gc[0].allCPU; cpu > 0 {
		gcFrac = (ph.gc[1].gcCPU - ph.gc[0].gcCPU) / cpu
	}
	return map[string]float64{
		"serve.queue_wait_ms":            median(queue),
		"serve.queue_wait_tail_ms":       percentile(queue, tailPct),
		"serve.batch_size":               mean(batchWidth),
		"serve.solve_self_ms":            median(solveSelf),
		"serve.shed":                     float64(shed),
		"serve.update_self_ms":           median(updSelfServe),
		"core.batch_ms":                  median(batchMS),
		"core.batch_tail_ms":             percentile(batchMS, tailPct),
		"core.update_ms":                 median(coreUpd),
		"core.update_self_ms":            median(coreUpdSelf),
		"core.update_allocs":             mean(allocs),
		"core.update_alloc_mb":           mean(allocMB),
		"core.prepare_s":                 median(prepare),
		"core.first_fixpoint_s":          median(firstFix),
		"kernel.rounds_per_batch":        roundsPerBatch,
		"kernel.rows_relaxed_per_update": mean(rows),
		"kernel.queue_peak":              float64(s1.ResidualQueuePeak),
		"kernel.computed_gbps":           gbps,
		"durable.wal_bytes_per_update":   perUpdate(walBytes),
		"durable.fsyncs_per_update":      perUpdate(syncs),
		"durable.fsync_ms":               median(fsync),
		"durable.snapshot_mb":            median(snapMB),
		"durable.snapshot_s":             median(snapS),
		"runtime.gc_cycles":              float64(ph.gc[1].cycles - ph.gc[0].cycles),
		"runtime.gc_cpu_frac":            gcFrac,
	}
}

// selfTime is s's duration minus the part of it its children cover.
func selfTime(s span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	covered, end := time.Duration(0), s.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return s.dur() - covered
}
