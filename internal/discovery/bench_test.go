package discovery

// Search-latency-under-ingest benches: the acceptance criterion of the live
// catalog is that a search never blocks on a writer.

import (
	"fmt"
	"sync"
	"testing"

	"valentine/internal/profile"
	"valentine/internal/table"
)

func benchCorpus(b *testing.B, n int) (*Index, *table.Table, []*table.Table) {
	b.Helper()
	ix := New(Options{})
	for i := 0; i < n; i++ {
		tab := benchTable(fmt.Sprintf("corpus%03d", i), i)
		if err := ix.Add(tab); err != nil {
			b.Fatal(err)
		}
	}
	churn := make([]*table.Table, 32)
	for i := range churn {
		churn[i] = benchTable(fmt.Sprintf("churn%02d", i), i)
	}
	q := table.New("query").
		AddColumn("customer_id", vals("u", 0, 400)).
		AddColumn("city", vals("c", 0, 400))
	return ix, q, churn
}

func benchTable(name string, i int) *table.Table {
	return table.New(name).
		AddColumn("cust", vals("u", i*7, i*7+400)).
		AddColumn("town", vals("c", i*5, i*5+400))
}

// ingester churns upserts in a background goroutine until the returned stop
// function is called. Profiling happens freshly each round (profile.New),
// as a live server ingesting new table versions would.
func ingester(b *testing.B, churn []*table.Table, upsert func(*profile.TableProfile) error) (stop func() int) {
	done := make(chan struct{})
	var n int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := upsert(profile.New(churn[i%len(churn)])); err != nil {
				b.Error(err)
				return
			}
			n++
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return n
	}
}

// BenchmarkSearchIdle is the baseline: search latency with no concurrent
// writers.
func BenchmarkSearchIdle(b *testing.B) {
	ix, q, _ := benchCorpus(b, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(q, ModeJoin, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchUnderIngest measures search latency on the live catalog
// while a writer continuously upserts: searches read the epoch snapshot and
// never wait on the writer, so the gap to BenchmarkSearchIdle is CPU
// contention only.
func BenchmarkSearchUnderIngest(b *testing.B) {
	ix, q, churn := benchCorpus(b, 150)
	stop := ingester(b, churn, ix.UpsertProfiled)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(q, ModeJoin, 5); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ingested := stop()
	ix.WaitCompaction()
	b.ReportMetric(float64(ingested)/float64(b.N), "upserts/search")
}

// BenchmarkUpsert measures steady-state ingest cost on a standing catalog
// (profiling included, as a serving upsert pays it).
func BenchmarkUpsert(b *testing.B) {
	ix, _, churn := benchCorpus(b, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Upsert(churn[i%len(churn)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ix.WaitCompaction()
}

// BenchmarkApplyBatch measures the amortization micro-batching buys: 16
// upserts applied as one batch vs 16 single-op writes (see BenchmarkUpsert)
// — one memtable rebuild and one epoch publish per batch.
func BenchmarkApplyBatch(b *testing.B) {
	ix, _, churn := benchCorpus(b, 150)
	const batch = 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ops := make([]Op, batch)
		for j := range ops {
			ops[j] = Op{Upsert: profile.New(churn[(i*len(ops)+j)%len(churn)])}
		}
		b.StartTimer()
		for _, err := range ix.Apply(ops) {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	ix.WaitCompaction()
}
