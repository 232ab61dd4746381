package simsrv

import (
	"math/rand"
	"testing"

	"sweb/internal/des"
	"sweb/internal/storage"
	"sweb/internal/workload"
)

// TestTable1RungsGolden pins the simulator bit for bit on two Table-1
// rungs built as the sim-table1 benchmark builds them (12 × 1.5 MiB
// uniform files, SWEB policy): a Meiko 30 s burst at 43 rps and a NOW
// 120 s sustained run at 2 rps. Any change to event ordering, the
// processor-sharing arithmetic or the request lifecycle moves at least
// one of these figures. The seeds are the benchmark's seed-1 rungs, so
// completed, dropped and mean response equal perfbench/sim_reference.json
// there too; change them only with a change that means to move the
// simulator's results.
func TestTable1RungsGolden(t *testing.T) {
	cases := []struct {
		machine   string
		nodes     int
		rps, dur  int
		seed      int64
		completed int64
		dropped   int64
		mean      float64
		events    int64
	}{
		{"Meiko", 6, 43, 30, 1001, 1290, 0, 66.53922621782951, 141987},
		{"NOW", 4, 2, 120, 1301, 17, 223, 47.798156588235294, 13642},
	}
	for _, tc := range cases {
		st := storage.NewStore(tc.nodes)
		paths := storage.UniformSet(st, 12, 1572864)
		cfg := MeikoConfig(tc.nodes, st)
		cfg.ClientTimeout = 3600 * des.Second
		if tc.machine == "NOW" {
			cfg = NOWConfig(tc.nodes, st)
			cfg.ClientTimeout = 90 * des.Second
		}
		cfg.Policy = PolicySWEB
		cfg.Seed = tc.seed
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		burst := workload.Burst{RPS: tc.rps, DurationSeconds: tc.dur, Jitter: true}
		arr, err := burst.Generate(workload.UniformPicker(paths), nil, rand.New(rand.NewSource(tc.seed^0x5eed)))
		if err != nil {
			t.Fatal(err)
		}
		res := cl.RunSchedule(arr)
		got := [4]any{res.Completed, res.Dropped(), res.MeanResponse(), cl.Sim.EventsFired()}
		want := [4]any{tc.completed, tc.dropped, tc.mean, tc.events}
		if got != want {
			t.Errorf("%s %d rps %d s: got completed, dropped, mean response, events = %v, want %v",
				tc.machine, tc.rps, tc.dur, got, want)
		}
	}
}
