package main

import "testing"

func TestParseLine(t *testing.T) {
	// Result lines are verbatim `go test -bench -benchmem` output.
	cases := []struct {
		line string
		name string
		want result
		ok   bool
	}{
		{
			line: "BenchmarkWALAppend-2   \t      20\t     20900 ns/op\t    8200 B/op\t       0 allocs/op",
			name: "BenchmarkWALAppend", want: result{NsOp: 20900, BOp: 8200}, ok: true,
		},
		{
			line: "BenchmarkConcurrentChurn/serialized/c=1-2         \t      20\t    117444 ns/op\t   32439 B/op\t      76 allocs/op",
			name: "BenchmarkConcurrentChurn/serialized/c=1", want: result{NsOp: 117444, BOp: 32439, AllocsOp: 76}, ok: true,
		},
		{
			// b.ReportMetric puts its unit between ns/op and B/op.
			line: "BenchmarkConcurrentChurn/pipelined/c=1-2          \t      20\t     71320 ns/op\t         1.000 spec-hit-rate\t   32870 B/op\t      83 allocs/op",
			name: "BenchmarkConcurrentChurn/pipelined/c=1", want: result{NsOp: 71320, BOp: 32870, AllocsOp: 83}, ok: true,
		},
		{
			line: "BenchmarkFloodAggregate/direct/n=1024-2         \t    2000\t     41234 ns/op\t       0 B/op\t       0 allocs/op",
			name: "BenchmarkFloodAggregate/direct/n=1024", want: result{NsOp: 41234}, ok: true,
		},
		{
			// Without -benchmem only ns/op is reported.
			line: "BenchmarkWalkHop-2   \t 2000000\t        10.61 ns/op",
			name: "BenchmarkWalkHop", want: result{NsOp: 10.61}, ok: true,
		},
		{
			// b.SetBytes adds MB/s, also before B/op.
			line: "BenchmarkEncode-8   \t   50000\t     31250 ns/op\t  32.77 MB/s\t    1024 B/op\t       2 allocs/op",
			name: "BenchmarkEncode", want: result{NsOp: 31250, BOp: 1024, AllocsOp: 2}, ok: true,
		},
		{
			// Without a GOMAXPROCS suffix (GOMAXPROCS=1) the name is kept whole.
			line: "BenchmarkRecoveryOp/dense/n=100000 \t     200\t     38414 ns/op\t       4 B/op\t       0 allocs/op",
			name: "BenchmarkRecoveryOp/dense/n=100000", want: result{NsOp: 38414, BOp: 4}, ok: true,
		},
		{line: "goos: linux"},
		{line: "cpu: Intel(R) Xeon(R) Processor"},
		{line: "PASS"},
		{line: "ok  \trepro\t0.082s"},
		{line: "BenchmarkConcurrentChurn/pipelined/c=1-2"},
		{line: "--- FAIL: BenchmarkWALAppend-2"},
		{line: "BenchmarkBroken-2 \t 20 \t fast ns/op"},
		{line: "BenchmarkNoTime-2 \t 20 \t 8200 B/op"},
	}
	for _, tc := range cases {
		name, got, ok := parseLine(tc.line)
		if ok != tc.ok || name != tc.name || got != tc.want {
			t.Errorf("parseLine(%q) = %q, %+v, %v; want %q, %+v, %v", tc.line, name, got, ok, tc.name, tc.want, tc.ok)
		}
	}
}
