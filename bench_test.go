// Benchmarks: one testing.B entry point per paper table/figure (driving the
// same runners as cmd/reachbench, at reduced scale so `go test -bench=.`
// stays laptop-friendly) plus microbenchmarks for the core building blocks.
//
// To regenerate the paper artifacts at full scale-down size, use
// `go run ./cmd/reachbench -exp all`.
package streach_test

import (
	"context"
	"sync"
	"testing"

	"streach"
	"streach/internal/bench"
)

// benchOpts shrinks the experiment suite for testing.B iteration.
var benchOpts = bench.Options{
	RWPSizes: []int{60, 90, 120},
	VNSizes:  []int{30, 45, 60},
	Ticks:    600,
	Queries:  10,
	Seed:     1,
}

var (
	labOnce sync.Once
	lab     *bench.Lab
)

// benchLab returns a shared Lab so dataset generation cost is paid once,
// not inside timing loops.
func benchLab() *bench.Lab {
	labOnce.Do(func() {
		lab = bench.NewLab(benchOpts)
	})
	return lab
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	l := benchLab()
	run := l.ByID(id)
	if run == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := run(); len(tbl.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", id)
		}
	}
}

func BenchmarkTable1Complexity(b *testing.B)       { runExperiment(b, "table1") }
func BenchmarkTable2DatasetSizes(b *testing.B)     { runExperiment(b, "table2") }
func BenchmarkFig8aSpatialResolution(b *testing.B) { runExperiment(b, "fig8a") }
func BenchmarkFig8bTemporalResolution(b *testing.B) {
	runExperiment(b, "fig8b")
}
func BenchmarkFig9GridConstruction(b *testing.B) { runExperiment(b, "fig9") }
func BenchmarkSPJvsReachGrid(b *testing.B)       { runExperiment(b, "spj") }
func BenchmarkFig10ContactNetworkSize(b *testing.B) {
	runExperiment(b, "fig10")
}
func BenchmarkFig11DNConstruction(b *testing.B)    { runExperiment(b, "fig11") }
func BenchmarkTable4ResolutionDegree(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkFig12PartitionDepth(b *testing.B)    { runExperiment(b, "fig12") }
func BenchmarkFig13TraversalStrategies(b *testing.B) {
	runExperiment(b, "fig13")
}
func BenchmarkFig14GridVsGraph(b *testing.B) { runExperiment(b, "fig14") }
func BenchmarkFig15CPUTime(b *testing.B)     { runExperiment(b, "fig15") }
func BenchmarkTable5aGrailVsReachGraphMemory(b *testing.B) {
	runExperiment(b, "table5a")
}
func BenchmarkTable5bGrailVsReachGraphDisk(b *testing.B) {
	runExperiment(b, "table5b")
}
func BenchmarkBackendsSweep(b *testing.B) { runExperiment(b, "backends") }

// --- microbenchmarks over the public API ---

var (
	microOnce sync.Once
	microDS   *streach.Dataset
	microCN   *streach.ContactNetwork
	microWork []streach.Query
)

func microSetup(b *testing.B) {
	b.Helper()
	microOnce.Do(func() {
		microDS = streach.GenerateRandomWaypoint(streach.RWPOptions{
			NumObjects: 150, NumTicks: 1000, Seed: 2,
		})
		microCN = microDS.Contacts()
		microWork = streach.RandomQueries(streach.WorkloadOptions{
			NumObjects: microDS.NumObjects(), NumTicks: microDS.NumTicks(),
			Count: 64, Seed: 3,
		})
	})
}

func BenchmarkContactExtraction(b *testing.B) {
	microSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if microDS.Contacts().NumContacts() == 0 {
			b.Fatal("no contacts")
		}
	}
}

// benchmarkBuild times Open of one backend over the (already extracted)
// micro dataset: the index build.
func benchmarkBuild(b *testing.B, backend string) {
	microSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := streach.Open(backend, microDS, streach.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildReachGrid(b *testing.B)  { benchmarkBuild(b, "reachgrid") }
func BenchmarkBuildReachGraph(b *testing.B) { benchmarkBuild(b, "reachgraph") }

// benchmarkQuery times point queries of one backend over the micro dataset.
func benchmarkQuery(b *testing.B, backend string) {
	microSetup(b)
	e, err := streach.Open(backend, microDS, streach.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Reachable(ctx, microWork[i%len(microWork)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReachGridQuery(b *testing.B)       { benchmarkQuery(b, "reachgrid") }
func BenchmarkReachGraphQueryBMBFS(b *testing.B) { benchmarkQuery(b, "reachgraph") }
func BenchmarkReachGraphQueryEDFS(b *testing.B)  { benchmarkQuery(b, "reachgraph-edfs") }

func BenchmarkOracleQuery(b *testing.B) {
	microSetup(b)
	oracle := microCN.Oracle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle.Reachable(microWork[i%len(microWork)])
	}
}

func BenchmarkEngineQuery(b *testing.B) {
	microSetup(b)
	e, err := streach.Open("reachgraph", microCN, streach.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Reachable(ctx, microWork[i%len(microWork)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateBatch(b *testing.B) {
	microSetup(b)
	e, err := streach.Open("reachgraph-mem", microCN, streach.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := streach.EvaluateBatch(ctx, e, microWork, streach.BatchOptions{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
