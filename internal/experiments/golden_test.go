package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"fuzzyfd/internal/core"
	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/metrics"
	"fuzzyfd/internal/table"
)

// Paper-fidelity goldens: what the system computes for the paper's tables
// on one small fixed configuration. The shape tests above only check
// orderings, so a change to matching, assignment, embedding or the lexicon
// could move Table 1 without failing them; these pins fail on any such
// change. A value here may only be re-recorded by a change that means to
// alter what the system computes, and says so.

// goldenCfg is small enough to keep the file well under two seconds.
func goldenCfg() Config {
	return Config{Seed: 1, Sets: 8, ValuesPerColumn: 60, Entities: 60}
}

// goldenTol absorbs last-ulp drift only: one value changing its cluster
// moves a macro-averaged score by more than 1e-4.
const goldenTol = 1e-12

type prf struct{ p, r, f1 float64 }

func checkPRF(t *testing.T, what string, got metrics.PRF, want prf) {
	t.Helper()
	if math.Abs(got.Precision-want.p) > goldenTol || math.Abs(got.Recall-want.r) > goldenTol || math.Abs(got.F1-want.f1) > goldenTol {
		t.Errorf("%s: P/R/F1 = %v / %v / %v, want %v / %v / %v",
			what, got.Precision, got.Recall, got.F1, want.p, want.r, want.f1)
	}
}

func TestGoldenTable1(t *testing.T) {
	want := []struct {
		model string
		prf
	}{
		{embed.FastText, prf{0.700848096529454, 0.7288761125558946, 0.7112113222182358}},
		{embed.BERT, prf{0.8046620926761662, 0.8103386150619661, 0.8005293471880895}},
		{embed.RoBERTa, prf{0.7961782466887773, 0.8021669117292177, 0.7898567259835905}},
		{embed.Llama3, prf{0.8367270965559039, 0.8542469259429369, 0.8432756023166283}},
		{embed.Mistral, prf{0.8364314089669879, 0.863173654833107, 0.8481552879255072}},
	}
	rows, err := Table1(goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if rows[i].Model != w.model {
			t.Fatalf("row %d is %s, want %s (Table 1 order)", i, rows[i].Model, w.model)
		}
		checkPRF(t, w.model, rows[i].PRF, w.prf)
	}

	// The paper's finding: FastText matches worst, Mistral best, and both
	// LLM tiers beat every non-LLM tier.
	f1 := func(i int) float64 { return rows[i].F1 }
	for i := 1; i < len(rows); i++ {
		if f1(i) <= f1(0) {
			t.Errorf("%s F1 %.4f does not beat fasttext's %.4f", rows[i].Model, f1(i), f1(0))
		}
	}
	for i := 0; i < len(rows)-1; i++ {
		if f1(i) >= f1(len(rows)-1) {
			t.Errorf("%s F1 %.4f is not below mistral's %.4f", rows[i].Model, f1(i), f1(len(rows)-1))
		}
	}
	for _, llm := range []int{3, 4} {
		for _, weak := range []int{0, 1, 2} {
			if f1(llm) <= f1(weak) {
				t.Errorf("LLM tier %s F1 %.4f does not beat %s F1 %.4f", rows[llm].Model, f1(llm), rows[weak].Model, f1(weak))
			}
		}
	}
}

func TestGoldenDownstreamEM(t *testing.T) {
	res, err := DownstreamEM(goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkPRF(t, "regular FD", res.Regular, prf{0.8899521531100478, 0.8532110091743119, 0.8711943793911007})
	checkPRF(t, "fuzzy FD", res.Fuzzy, prf{0.9819819819819819, 1, 0.9909090909090909})
}

func TestGoldenBaselines(t *testing.T) {
	want := []struct {
		method string
		prf
	}{
		{"q-gram join (Zhu et al.)", prf{0.925992955072291, 0.8463332458079862, 0.8739277650790117}},
		{"auto-tuned θ (Li et al.)", prf{0.932685661545197, 0.8550122845489397, 0.8866273455141885}},
		{"fixed θ=0.7 (paper)", prf{0.8364314089669879, 0.863173654833107, 0.8481552879255072}},
	}
	rows, err := Baselines(goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if rows[i].Method != w.method {
			t.Fatalf("row %d is %q, want %q", i, rows[i].Method, w.method)
		}
		checkPRF(t, w.method, rows[i].PRF, w.prf)
	}
}

// TestGoldenOperators pins the operator comparison: the four baselines run
// the fd operators, the two Full Disjunctions the whole pipeline.
func TestGoldenOperators(t *testing.T) {
	want := []struct {
		op       string
		rows     int
		nullFrac float64
		coverage float64
		em       prf
	}{
		{"inner join", 0, 0, 0, prf{1, 0, 0}},
		{"outer union", 204, 0.4207516339869281, 1, prf{0.8416289592760181, 0.8532110091743119, 0.847380410022779}},
		{"outer join (one order)", 178, 0.3913857677902622, 1, prf{0.8888888888888888, 0.8440366972477065, 0.8658823529411764}},
		{"full disjunction (ALITE)", 178, 0.38764044943820225, 1, prf{0.8899521531100478, 0.8532110091743119, 0.8711943793911007}},
		{"fuzzy full disjunction", 88, 0.1856060606060606, 1, prf{0.9819819819819819, 1, 0.9909090909090909}},
	}
	rows, err := Operators(goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		r := rows[i]
		if r.Operator != w.op {
			t.Fatalf("row %d is %q, want %q", i, r.Operator, w.op)
		}
		if r.Rows != w.rows || math.Abs(r.NullFrac-w.nullFrac) > goldenTol || math.Abs(r.Coverage-w.coverage) > goldenTol {
			t.Errorf("%s: rows %d, null fraction %v, coverage %v; want %d, %v, %v",
				w.op, r.Rows, r.NullFrac, r.Coverage, w.rows, w.nullFrac, w.coverage)
		}
		checkPRF(t, w.op, r.EM, w.em)
	}
}

func TestGoldenThetaSweep(t *testing.T) {
	want := []struct {
		theta float64
		prf
	}{
		{0.5, prf{0.9880243958048336, 0.9192557406749119, 0.9505690597097592}},
		{0.6, prf{0.939704023374798, 0.907240273741434, 0.920354061482418}},
		{0.7, prf{0.8364314089669879, 0.863173654833107, 0.8481552879255072}},
		{0.8, prf{0.7354135001601623, 0.8211686457561344, 0.7750879022097492}},
		{0.9, prf{0.7546164994726873, 0.8905642507427887, 0.816433067718528}},
	}
	rows, err := ThetaSweep(goldenCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if rows[i].Theta != w.theta {
			t.Fatalf("row %d has θ %v, want %v", i, rows[i].Theta, w.theta)
		}
		checkPRF(t, "θ sweep", rows[i].PRF, w.prf)
	}
}

// TestGoldenEMBenchIntegration pins the fuzzy integration of the EM
// benchmark under every tier, table and provenance, as the SHA-256 of its
// JSONL. The values are dirty, so every run rewrites cells; a run without
// rewrites would pin nothing of the match-and-rewrite step.
func TestGoldenEMBenchIntegration(t *testing.T) {
	want := map[string]struct {
		sha      string
		rewrites int
		rows     int
	}{
		embed.FastText: {"bb05eddb0a0a7d2835cac77ebce49ea6457987e9013cd15c043891115afeb203", 166, 128},
		embed.BERT:     {"4e2d5f276c97bfef9082f3568465439612811d02d8f89e88ffbbb6e9f7fa269e", 156, 108},
		embed.RoBERTa:  {"fd78d08b8d57358dddcb110ce71fd3b64f6e5b8233b84f59e998291d5868e61f", 164, 109},
		embed.Llama3:   {"2cd0bce1d3b93f478a65faf5e33ce91f70fb4811cc8d542dc8cf2c5fafd2757e", 155, 93},
		embed.Mistral:  {"6e3a621861cdbbec863afe207b81f96e6313afbab311ec676a52be6b7fc5eed5", 152, 88},
	}
	cfg := goldenCfg()
	bench := datagen.EMBench(datagen.EMConfig{Seed: cfg.Seed, Entities: cfg.Entities})
	for _, name := range embed.ModelNames() {
		model, err := embed.New(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Integrate(bench.Tables, core.Config{Embedder: model})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w := want[name]
		if res.MatchStats.Rewrites == 0 {
			t.Errorf("%s: no cell rewritten; the golden would not cover the rewrite path", name)
		}
		if res.MatchStats.Rewrites != w.rewrites || res.Table.NumRows() != w.rows {
			t.Errorf("%s: %d rewrites, %d rows; want %d, %d", name, res.MatchStats.Rewrites, res.Table.NumRows(), w.rewrites, w.rows)
		}
		// Go may fuse a float64 multiply-add on other architectures, which
		// can move an embedding by an ulp; the digest was recorded on amd64.
		if runtime.GOARCH != "amd64" {
			continue
		}
		h := sha256.New()
		if err := table.WriteJSONL(h, res.TableWithProvenance()); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != w.sha {
			t.Errorf("%s: integration digest %s, want %s", name, got, w.sha)
		}
	}
}

// operatorDigest is the SHA-256 of an operator result's JSONL followed by
// one line per row listing its provenance.
func operatorDigest(t *testing.T, res *fd.Result) string {
	t.Helper()
	h := sha256.New()
	if err := table.WriteJSONL(h, res.Table); err != nil {
		t.Fatal(err)
	}
	for _, prov := range res.Prov {
		fmt.Fprintln(h, prov)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenOperatorOutputs pins the three baseline operators' output on
// the EM benchmark byte for byte — rows, row order and provenance — so a
// reimplementation cannot drift from the one the goldens were recorded
// with. The inner join of all four tables is empty, so the first two
// tables are pinned as well.
func TestGoldenOperatorOutputs(t *testing.T) {
	want := map[string][3]string{
		"seed 1": {
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"52bbc63d145b91171a58c264f6982fb00b9bda8be81bcf6258ca8669d3461729",
			"2cca8807858b28154b71e15479a24a3cf89d46f13597a4a52381cb75d93c633d",
		},
		"seed 7": {
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"5a7576da188e1b85e5627048a9a204a051e87b8b1e3aa370cf37ae8a6512e5fc",
			"6da806d57639e823ac751d3da1951c12a7dcb6b4d70d6156b88f50bce34c3b54",
		},
		"seed 1, 2 of 4": {
			"d4b60e0cf96e70136afb76ed5ce0b1b2a6a2e96ef3b70000aa0764be13430753",
			"0814235edb5f0fe52c3d7cfe3b4616fc09c2eccd9cee0086ae52fc4b0bbe0f27",
			"839f111d3d4222e11fff7e54860603c0e85d845c0c32c9b47e3d22ea96612b78",
		},
		"seed 7, 2 of 4": {
			"4db201a35ac57c53749a2ea247652b5c6cce21be4920245c335e7af5b2525c22",
			"e793eb999a9f04e4d60af62910373e64e7a7feb30be9152e0e8678faf510dc1b",
			"c0249ec700e0f94261aa03cb74f2461f2a9defa56b8da324cf51723095c61d93",
		},
	}
	for _, seed := range []int64{1, 7} {
		bench := datagen.EMBench(datagen.EMConfig{Seed: seed, Entities: goldenCfg().Entities})
		for _, tables := range [][]*table.Table{bench.Tables, bench.Tables[:2]} {
			name := fmt.Sprintf("seed %d", seed)
			if len(tables) < len(bench.Tables) {
				name += fmt.Sprintf(", %d of %d", len(tables), len(bench.Tables))
			}
			schema := fd.IdentitySchema(tables)
			inner, err := innerJoin(tables, schema)
			if err != nil {
				t.Fatal(err)
			}
			union, err := outerUnionOnly(tables, schema)
			if err != nil {
				t.Fatal(err)
			}
			chain, err := outerJoinChain(tables, schema, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range []*fd.Result{inner, union, chain} {
				if got := operatorDigest(t, res); got != want[name][i] {
					t.Errorf("%s, operator %d (%d rows): digest %s, want %s", name, i, res.Table.NumRows(), got, want[name][i])
				}
			}
		}
	}
}
