package simfleet

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maia/internal/vclock"
)

var updatePolicyGolden = flag.Bool("update", false, "regenerate testdata/policy_stats.golden")

const policyGoldenPath = "testdata/policy_stats.golden"

// policyGrid enumerates the configurations policy_stats.golden pins:
// every policy × every MTBF profile × node counts straddling the 64-bit
// word boundaries (1, 3, 63, 64, 65, the 512 maximum) × under-, over- and
// heavily over-saturated loads × remediation on and off. Conditions are
// sampled per node, so cordons, rebalances and repairs all occur; the
// default 1200 s horizon outlasts the shorter repairs (jitter takes a
// 10-minute MTTR down to 5 minutes), so nodes also return to service.
func policyGrid(tab *PriceTable) []Config {
	var cfgs []Config
	for _, policy := range PolicyNames() {
		for _, profile := range ProfileNames() {
			for _, nodes := range []int{1, 3, 63, 64, 65, 512} {
				for _, load := range []float64{0.7, 1.5, 3} {
					for _, remediate := range []bool{false, true} {
						cfgs = append(cfgs, Config{
							Nodes:     nodes,
							Seed:      uint64(len(cfgs) + 1),
							Profile:   profile,
							Scheduler: policy,
							Remediate: remediate,
							Load:      load,
							Prices:    tab,
						})
					}
				}
			}
		}
	}
	return cfgs
}

// policyGridLine renders one grid run as "key sha256(%+v Stats)": the
// hash keeps the file small, the key keeps a mismatch readable.
func policyGridLine(cfg Config, st Stats) string {
	key := fmt.Sprintf("%s/%s/n%d/load%g/remediate=%t/seed%d",
		cfg.Scheduler, cfg.Profile, cfg.Nodes, cfg.Load, cfg.Remediate, cfg.Seed)
	return fmt.Sprintf("%s %x\n", key, sha256.Sum256([]byte(fmt.Sprintf("%+v", st))))
}

// TestPolicyStatsGolden pins the Stats of all three scheduler policies
// over policyGrid. The fleet goldens exercise only least-loaded, so this
// is what holds round-robin's cursor order and random's k-th-idle pick
// to their recorded behaviour. Regenerate with -update only for a
// deliberate model change.
func TestPolicyStatsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, cfg := range policyGrid(mustTable(t)) {
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString(policyGridLine(cfg, st))
	}
	if *updatePolicyGolden {
		if err := os.MkdirAll(filepath.Dir(policyGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(policyGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(policyGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := strings.SplitAfter(got.String(), "\n")
	wantLines := strings.SplitAfter(string(want), "\n")
	bad := 0
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			if bad++; bad <= 5 {
				t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
			}
		}
	}
	t.Fatalf("%d of %d grid lines differ from %s", bad, len(wantLines), policyGoldenPath)
}

// benchSink keeps BenchmarkRun's result live.
var benchSink Stats

// BenchmarkRun times one saturated fleet run per policy at a mid-size
// and the maximum fleet, with sampled conditions and remediation on.
func BenchmarkRun(b *testing.B) {
	tab, err := testTable()
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range PolicyNames() {
		for _, nodes := range []int{64, 512} {
			cfg := Config{
				Nodes:     nodes,
				Duration:  600 * vclock.Second,
				Profile:   "erratic",
				Scheduler: policy,
				Remediate: true,
				Load:      1.5,
				Prices:    tab,
			}
			b.Run(fmt.Sprintf("%s/n%d", policy, nodes), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st, err := Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = st
				}
			})
		}
	}
}
