package tester

import (
	"fmt"
	"runtime"
	"sync"

	"netdebug/internal/core"
	"netdebug/internal/device"
	"netdebug/internal/stats"
)

// Fleet runs an external-tester workload sharded across several device
// instances in parallel — the scale-out form of the baseline: each
// worker gets its own device (built by New) and a slice of every
// stream's packet budget, because a Device and its target are not safe
// for concurrent use. Shard by device, never by lock. Within a shard
// each stream is driven through the device's batched burst path
// (SendExternalBurst), so the fleet composes both scale-out forms:
// sharding across devices and batching within one.
type Fleet struct {
	// New builds one device per worker. It must return independent
	// devices (each with its own target) configured identically, and it
	// may be called concurrently from the shard goroutines.
	New func() (*device.Device, error)
	// Workers is the shard count; <= 0 means one per CPU.
	Workers int

	// Warm-run state reused across Run calls — a Fleet must not be run
	// concurrently with itself: the shared slab, the cached shard plan
	// (outer and inner backing arrays survive between runs of the same
	// shape), the per-shard testers with their scoring scratch, and the
	// result staging.
	arena   core.SharedArena
	shards  [][]Stream
	testers []*Tester
	reports []*Report
	errs    []error
}

// Run splits every stream's Count across the shards, runs the shards
// concurrently, and merges the per-shard reports deterministically.
//
// Counters (sent/received/lost/unexpected, per-stream tallies) and
// throughput (RxPPS/RxBPS) are summed across shards — the fleet's
// aggregate rate. RTT statistics are computed over the merged
// per-shard sample histograms, so p50/p99 are true percentiles of
// every frame the fleet matched (a worst-shard percentile is not a
// percentile of the fleet); max is the exact fleet maximum. Pass
// requires every shard to pass.
func (f *Fleet) Run(streams []Stream) (*Report, error) {
	if f.New == nil {
		return nil, fmt.Errorf("tester: fleet has no device factory")
	}
	workers := f.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxCount, totalBytes := 0, 0
	for _, s := range streams {
		// Match the sequential Tester.Run contract: empty streams are an
		// error, not a silently passing no-op.
		if len(s.Frame) == 0 || s.Count <= 0 {
			return nil, fmt.Errorf("tester: stream %q is empty", s.Name)
		}
		if s.Count > maxCount {
			maxCount = s.Count
		}
		totalBytes += s.Count * len(s.Frame)
	}
	if workers > maxCount {
		workers = maxCount
	}
	if workers < 1 {
		workers = 1
	}

	// Rebuild the shard plan into cached backing arrays: when the stream
	// set and worker count keep their shape between runs (the steady
	// state of a benchmark or a resident service), planning a warm run
	// allocates nothing.
	for len(f.shards) < workers {
		f.shards = append(f.shards, nil)
	}
	shards := f.shards[:workers]
	for w := 0; w < workers; w++ {
		shard := shards[w][:0]
		for _, s := range streams {
			// Spread Count as evenly as possible; early shards take the
			// remainder.
			c := s.Count / workers
			if w < s.Count%workers {
				c++
			}
			if c == 0 {
				continue
			}
			s.Count = c
			shard = append(shard, s)
		}
		shards[w] = shard
	}

	// One slab for the whole fleet: every shard's Tester reserves its
	// contiguous extent off it concurrently (atomic bump inside
	// SharedArena), so all shards stamp frames into one memory region.
	// The shard sums never exceed totalBytes, so every reservation fits.
	f.arena.Reset(totalBytes)
	for len(f.testers) < workers {
		f.testers = append(f.testers, New(nil))
	}
	if cap(f.reports) < workers {
		f.reports = make([]*Report, workers)
		f.errs = make([]error, workers)
	}
	reports := f.reports[:workers]
	errs := f.errs[:workers]
	for w := range reports {
		reports[w], errs[w] = nil, nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		if len(shards[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dev, err := f.New()
			if err != nil {
				errs[w] = fmt.Errorf("tester: fleet shard %d: %w", w, err)
				return
			}
			t := f.testers[w]
			t.dev = dev
			t.UseArena(&f.arena)
			reports[w], errs[w] = t.Run(shards[w])
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergeReports(reports), nil
}

// mergeReports aggregates per-shard reports (nil entries are skipped).
// RTT statistics come from the merged sample histograms: the aggregate
// p50/p99 are percentiles of the union of every shard's matched
// frames. Shards without a sample histogram (reports not produced by
// Tester.Run) fall back to the conservative worst-shard bound.
func mergeReports(reports []*Report) *Report {
	agg := &Report{PerStream: make(map[string]StreamResult), Pass: true}
	merged := stats.NewHistogram()
	var rttWeighted float64
	allSampled := true
	for _, r := range reports {
		if r == nil {
			continue
		}
		agg.Sent += r.Sent
		agg.Received += r.Received
		agg.Lost += r.Lost
		agg.Unexpected += r.Unexpected
		agg.RxPPS += r.RxPPS
		agg.RxBPS += r.RxBPS
		rttWeighted += float64(r.RTTMeanNs) * float64(r.Received)
		if r.rtt != nil {
			merged.Merge(r.rtt)
		} else {
			allSampled = false
		}
		if r.RTTP50Ns > agg.RTTP50Ns {
			agg.RTTP50Ns = r.RTTP50Ns
		}
		if r.RTTP99Ns > agg.RTTP99Ns {
			agg.RTTP99Ns = r.RTTP99Ns
		}
		if r.RTTMaxNs > agg.RTTMaxNs {
			agg.RTTMaxNs = r.RTTMaxNs
		}
		for name, sr := range r.PerStream {
			cur, seen := agg.PerStream[name]
			if !seen {
				cur.Pass = true
			}
			cur.Sent += sr.Sent
			cur.Received += sr.Received
			cur.Lost += sr.Lost
			cur.Pass = cur.Pass && sr.Pass
			agg.PerStream[name] = cur
		}
		agg.Pass = agg.Pass && r.Pass
	}
	if allSampled && merged.Count() > 0 {
		agg.RTTMeanNs = merged.Mean().Nanoseconds()
		agg.RTTP50Ns = merged.Quantile(0.5).Nanoseconds()
		agg.RTTP99Ns = merged.Quantile(0.99).Nanoseconds()
		agg.RTTMaxNs = merged.Max().Nanoseconds() // max is still max: exact
		agg.rtt = merged
	} else if agg.Received > 0 {
		agg.RTTMeanNs = int64(rttWeighted / float64(agg.Received))
	}
	return agg
}
