package main

// Serve-path measurement (-json "serve" section): search latency against a
// standing discovery catalog, idle and under continuous concurrent ingest
// on the live segmented copy-on-write catalog (searches pin an epoch
// snapshot, never waiting on writers). The ratio lands in BENCH_<n>.json so
// the trajectory records what concurrent ingest costs a search on the
// hardware that produced the file; on a single-core runner that cost is
// pure CPU contention.

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"valentine"
)

type jsonServe struct {
	CPUs          int `json:"cpus"`
	GOMAXPROCS    int `json:"gomaxprocs"`
	CorpusTables  int `json:"corpus_tables"`
	CorpusColumns int `json:"corpus_columns"`
	Searches      int `json:"searches_per_arm"`
	// IngestEveryUS is the pacing of the concurrent ingester: one upsert
	// (of a 2000-row table, profiled on ingest) per interval, the arrival
	// pattern of a live feed rather than a flat-out loop.
	IngestEveryUS int64 `json:"ingest_every_us"`

	IdleSearchUS    int64 `json:"idle_search_us"`
	IdleSearchMaxUS int64 `json:"idle_search_max_us"`

	LiveUnderIngestSearchUS    int64   `json:"live_under_ingest_search_us"`
	LiveUnderIngestSearchMaxUS int64   `json:"live_under_ingest_search_max_us"`
	LiveUnderIngestRatio       float64 `json:"live_under_ingest_ratio"`
	LiveIngested               int     `json:"live_ingested_tables"`
}

func serveVals(prefix string, lo, hi int) []string {
	out := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, fmt.Sprintf("%s%05d", prefix, i))
	}
	return out
}

func serveTable(name string, i int) *valentine.Table {
	t := valentine.NewTable(name)
	t.AddColumn("cust", serveVals("u", i*7, i*7+400))
	t.AddColumn("town", serveVals("c", i*5, i*5+400))
	return t
}

// measureServe builds a 150-table catalog and times a fixed search workload
// in two arms: idle and under live-catalog ingest.
func measureServe() (*jsonServe, error) {
	const (
		corpus      = 150
		searches    = 200
		ingestEvery = 5 * time.Millisecond // paced feed, not a flat-out loop
		churnRows   = 2000                 // profiling cost a real ingest pays
	)
	out := &jsonServe{
		CPUs:          runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Searches:      searches,
		IngestEveryUS: ingestEvery.Microseconds(),
	}

	build := func() (*valentine.DiscoveryIndex, error) {
		ix := valentine.NewDiscoveryIndex(valentine.DiscoveryOptions{})
		for i := 0; i < corpus; i++ {
			if err := ix.Add(serveTable(fmt.Sprintf("corpus%03d", i), i)); err != nil {
				return nil, err
			}
		}
		return ix, nil
	}
	query := valentine.NewTable("query")
	query.AddColumn("customer_id", serveVals("u", 0, 400))
	query.AddColumn("city", serveVals("c", 0, 400))
	churn := make([]*valentine.Table, 8)
	for i := range churn {
		t := valentine.NewTable(fmt.Sprintf("churn%02d", i))
		t.AddColumn("cust", serveVals("u", i*7, i*7+churnRows))
		t.AddColumn("town", serveVals("c", i*5, i*5+churnRows))
		churn[i] = t
	}

	// sweep times `searches` sequential searches, returning mean and max —
	// the max is where a blocking writer shows up as a stall.
	sweep := func(search func() error) (mean, max time.Duration, err error) {
		for i := 0; i < searches; i++ {
			start := time.Now()
			if err := search(); err != nil {
				return 0, 0, err
			}
			d := time.Since(start)
			mean += d
			if d > max {
				max = d
			}
		}
		return mean / searches, max, nil
	}
	// ingest upserts one churn table per pacing interval until stopped,
	// returning how many landed.
	ingest := func(upsert func(*valentine.Table) error) (stop func() (int, error)) {
		done := make(chan struct{})
		var (
			n   int
			err error
			wg  sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(ingestEvery)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				case <-tick.C:
				}
				if err = upsert(churn[i%len(churn)]); err != nil {
					return
				}
				n++
			}
		}()
		return func() (int, error) {
			close(done)
			wg.Wait()
			return n, err
		}
	}

	// Arm 1: idle.
	ix, err := build()
	if err != nil {
		return nil, err
	}
	searchOnce := func(ix *valentine.DiscoveryIndex) func() error {
		return func() error {
			_, err := ix.Search(query, valentine.DiscoverJoin, 5)
			return err
		}
	}
	out.CorpusTables, out.CorpusColumns = ix.NumTables(), ix.NumColumns()
	idle, idleMax, err := sweep(searchOnce(ix))
	if err != nil {
		return nil, err
	}
	out.IdleSearchUS = idle.Microseconds()
	out.IdleSearchMaxUS = idleMax.Microseconds()

	// Arm 2: the live catalog under ingest — searches read epoch snapshots.
	ix, err = build()
	if err != nil {
		return nil, err
	}
	stop := ingest(ix.Upsert)
	live, liveMax, err := sweep(searchOnce(ix))
	n, ierr := stop()
	ix.WaitCompaction()
	if err != nil {
		return nil, err
	}
	if ierr != nil {
		return nil, ierr
	}
	out.LiveUnderIngestSearchUS = live.Microseconds()
	out.LiveUnderIngestSearchMaxUS = liveMax.Microseconds()
	out.LiveIngested = n

	if idle > 0 {
		out.LiveUnderIngestRatio = float64(live) / float64(idle)
	}
	fmt.Fprintf(os.Stderr,
		"serve latency (%d cpus): idle %dµs (max %dµs); under ingest %dµs (%.2fx, max %dµs)\n",
		out.CPUs, out.IdleSearchUS, out.IdleSearchMaxUS,
		out.LiveUnderIngestSearchUS, out.LiveUnderIngestRatio, out.LiveUnderIngestSearchMaxUS)
	return out, nil
}
