// Package experiments reproduces every table and figure of the paper's
// evaluation (§3) on the generated benchmarks:
//
//   - Table 1: value-matching effectiveness of the five embedding models on
//     the Auto-Join benchmark (31 integration sets, θ = 0.7).
//   - §3.2 in-text numbers: entity matching over Fuzzy FD vs regular FD on
//     the ALITE-style EM benchmark.
//   - Figure 3: runtime of regular FD (ALITE) vs Fuzzy FD on the IMDB
//     benchmark, sweeping the number of input tuples.
//   - The θ sweep behind the paper's "0.7 gives the best results" remark.
//
// Every run is seeded and deterministic. cmd/experiments prints the
// results; EXPERIMENTS.md records them.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"fuzzyfd/internal/core"
	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/em"
	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/match"
	"fuzzyfd/internal/metrics"
)

// Config holds the shared experiment parameters.
type Config struct {
	Seed int64
	// Sets and ValuesPerColumn size the Auto-Join benchmark (defaults: 31
	// sets, 150 values — the paper's scale).
	Sets            int
	ValuesPerColumn int
	// Entities sizes the EM benchmark (default 150).
	Entities int
	// Sizes are the input-tuple counts for Figure 3 (default 5K..30K).
	Sizes []int
	// Theta is the matching threshold (default 0.7).
	Theta float64
}

func (c Config) withDefaults() Config {
	if c.Sets == 0 {
		c.Sets = 31
	}
	if c.ValuesPerColumn == 0 {
		c.ValuesPerColumn = 150
	}
	if c.Entities == 0 {
		c.Entities = 150
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{5000, 10000, 15000, 20000, 25000, 30000}
	}
	if c.Theta == 0 {
		c.Theta = match.DefaultTheta
	}
	return c
}

// ModelScore is one Table 1 row.
type ModelScore struct {
	Model string
	metrics.PRF
}

// Table1 evaluates each embedding model's value matching on the Auto-Join
// benchmark, macro-averaging P/R/F1 over the integration sets exactly as
// the paper's Table 1 does.
func Table1(cfg Config) ([]ModelScore, error) {
	cfg = cfg.withDefaults()
	sets := datagen.AutoJoin(datagen.AutoJoinConfig{
		Seed: cfg.Seed, Sets: cfg.Sets, ValuesPerColumn: cfg.ValuesPerColumn,
	})
	var out []ModelScore
	for _, name := range embed.ModelNames() {
		model, err := embed.New(name)
		if err != nil {
			return nil, err
		}
		scores, err := scoreModel(embed.Cached(model, embed.NewValueCache()), sets, cfg.Theta)
		if err != nil {
			return nil, err
		}
		out = append(out, ModelScore{Model: name, PRF: metrics.Mean(scores)})
	}
	return out, nil
}

func scoreModel(model embed.Embedder, sets []*datagen.IntegrationSet, theta float64) ([]metrics.PRF, error) {
	matcher := &match.Matcher{Emb: model, Opts: match.Options{Theta: theta}}
	scores := make([]metrics.PRF, 0, len(sets))
	for _, s := range sets {
		clusters, _, err := matcher.Match(context.Background(), s.Columns)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on %s: %w", model.Name(), s.Name, err)
		}
		scores = append(scores, s.Evaluate(clusters))
	}
	return scores, nil
}

// EMResult holds the §3.2 downstream comparison.
type EMResult struct {
	Regular metrics.PRF // entity matching over regular FD (ALITE)
	Fuzzy   metrics.PRF // entity matching over Fuzzy FD
}

// DownstreamEM integrates the EM benchmark with both pipelines and runs
// entity matching over each output.
func DownstreamEM(cfg Config) (EMResult, error) {
	cfg = cfg.withDefaults()
	bench := datagen.EMBench(datagen.EMConfig{Seed: cfg.Seed, Entities: cfg.Entities})

	var out EMResult
	for _, m := range []core.Method{core.MethodEquiFD, core.MethodFuzzyFD} {
		res, err := core.Integrate(bench.Tables, core.Config{Method: m, Theta: cfg.Theta})
		if err != nil {
			return EMResult{}, fmt.Errorf("experiments: %v: %w", m, err)
		}
		prf := em.Evaluate(res.FDResult(), bench.Gold, em.Options{})
		if m == core.MethodEquiFD {
			out.Regular = prf
		} else {
			out.Fuzzy = prf
		}
	}
	return out, nil
}

// RuntimePoint is one x-position of Figure 3.
type RuntimePoint struct {
	InputTuples int
	ALITE       time.Duration // regular FD total
	FuzzyFD     time.Duration // value matching + FD total
	MatchShare  time.Duration // the fuzzy pipeline's value-matching phase
	OutputRows  int
}

// Figure3 measures both pipelines over the IMDB benchmark at each size.
func Figure3(cfg Config) ([]RuntimePoint, error) {
	cfg = cfg.withDefaults()
	var out []RuntimePoint
	for _, size := range cfg.Sizes {
		tables := datagen.IMDB(datagen.IMDBConfig{Seed: cfg.Seed, TotalTuples: size})
		p := RuntimePoint{InputTuples: datagen.TotalRows(tables)}

		reg, err := core.Integrate(tables, core.Config{Method: core.MethodEquiFD})
		if err != nil {
			return nil, fmt.Errorf("experiments: figure3 ALITE size %d: %w", size, err)
		}
		p.ALITE = reg.Timings.Total

		fz, err := core.Integrate(tables, core.Config{Method: core.MethodFuzzyFD, Theta: cfg.Theta})
		if err != nil {
			return nil, fmt.Errorf("experiments: figure3 fuzzy size %d: %w", size, err)
		}
		p.FuzzyFD = fz.Timings.Total
		p.MatchShare = fz.Timings.Match
		p.OutputRows = fz.Table.NumRows()
		out = append(out, p)
	}
	return out, nil
}

// ThetaScore is one θ-sweep row (ablation A4: the paper reports θ = 0.7
// gives the best results).
type ThetaScore struct {
	Theta float64
	metrics.PRF
}

// ThetaSweep evaluates the strongest model at several thresholds.
func ThetaSweep(cfg Config, thetas []float64) ([]ThetaScore, error) {
	cfg = cfg.withDefaults()
	if len(thetas) == 0 {
		thetas = []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	}
	sets := datagen.AutoJoin(datagen.AutoJoinConfig{
		Seed: cfg.Seed, Sets: cfg.Sets, ValuesPerColumn: cfg.ValuesPerColumn,
	})
	model := embed.Cached(embed.NewMistral(), embed.NewValueCache())
	var out []ThetaScore
	for _, theta := range thetas {
		scores, err := scoreModel(model, sets, theta)
		if err != nil {
			return nil, err
		}
		out = append(out, ThetaScore{Theta: theta, PRF: metrics.Mean(scores)})
	}
	return out, nil
}

// OperatorScore is one row of the integration-operator comparison the
// paper's introduction motivates FD with: inner join loses dangling
// tuples, outer union combines nothing, a single-order outer join chain is
// order-dependent, and (fuzzy) FD integrates maximally.
type OperatorScore struct {
	Operator string
	Rows     int
	NullFrac float64 // share of null cells — fragmentation
	Coverage float64 // share of input tuples represented
	EM       metrics.PRF
}

// Operators integrates the EM benchmark with each basic operator and
// Fuzzy FD, reporting completeness and downstream entity-matching quality.
func Operators(cfg Config) ([]OperatorScore, error) {
	cfg = cfg.withDefaults()
	bench := datagen.EMBench(datagen.EMConfig{Seed: cfg.Seed, Entities: cfg.Entities})
	schema := fd.IdentitySchema(bench.Tables)

	score := func(name string, res *fd.Result) OperatorScore {
		return OperatorScore{
			Operator: name,
			Rows:     res.Table.NumRows(),
			NullFrac: nullFraction(res),
			Coverage: coverage(res, bench.Tables),
			EM:       em.Evaluate(res, bench.Gold, em.Options{}),
		}
	}

	var out []OperatorScore
	inner, err := innerJoin(bench.Tables, schema)
	if err != nil {
		return nil, err
	}
	out = append(out, score("inner join", inner))

	union, err := outerUnionOnly(bench.Tables, schema)
	if err != nil {
		return nil, err
	}
	out = append(out, score("outer union", union))

	chain, err := outerJoinChain(bench.Tables, schema, nil)
	if err != nil {
		return nil, err
	}
	out = append(out, score("outer join (one order)", chain))

	for _, m := range []core.Method{core.MethodEquiFD, core.MethodFuzzyFD} {
		res, err := core.Integrate(bench.Tables, core.Config{Method: m, Theta: cfg.Theta})
		if err != nil {
			return nil, err
		}
		name := "full disjunction (ALITE)"
		if m == core.MethodFuzzyFD {
			name = "fuzzy full disjunction"
		}
		out = append(out, score(name, res.FDResult()))
	}
	return out, nil
}

// FprintOperators renders the operator comparison.
func FprintOperators(w io.Writer, rows []OperatorScore) {
	fmt.Fprintf(w, "%-26s %6s %7s %9s   %s\n", "Operator", "Rows", "Null%", "Coverage", "Entity matching")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %6d %6.1f%% %8.1f%%   %v\n",
			r.Operator, r.Rows, r.NullFrac*100, r.Coverage*100, r.EM)
	}
}

// BaselineScore is one row of the related-work comparison: the paper's
// method (Mistral embeddings, fixed θ) against the fuzzy-join families its
// Related Work cites — transformation/q-gram joins (Zhu et al. 2017) and
// unsupervised per-pair threshold tuning (Li et al. 2021).
type BaselineScore struct {
	Method string
	metrics.PRF
}

// Baselines evaluates the related-work matching baselines on the Auto-Join
// benchmark alongside the paper's configuration.
func Baselines(cfg Config) ([]BaselineScore, error) {
	cfg = cfg.withDefaults()
	sets := datagen.AutoJoin(datagen.AutoJoinConfig{
		Seed: cfg.Seed, Sets: cfg.Sets, ValuesPerColumn: cfg.ValuesPerColumn,
	})

	var out []BaselineScore
	run := func(method string, matchSet func(s *datagen.IntegrationSet) ([]match.Cluster, error)) error {
		scores := make([]metrics.PRF, 0, len(sets))
		for _, s := range sets {
			clusters, err := matchSet(s)
			if err != nil {
				return fmt.Errorf("experiments: %s on %s: %w", method, s.Name, err)
			}
			scores = append(scores, s.Evaluate(clusters))
		}
		out = append(out, BaselineScore{Method: method, PRF: metrics.Mean(scores)})
		return nil
	}

	qgram := &match.Matcher{Scorer: match.QGramScorer(3), Opts: match.Options{Theta: cfg.Theta}}
	if err := run("q-gram join (Zhu et al.)", func(s *datagen.IntegrationSet) ([]match.Cluster, error) {
		clusters, _, err := qgram.Match(context.Background(), s.Columns)
		return clusters, err
	}); err != nil {
		return nil, err
	}
	emb := embed.Cached(embed.NewMistral(), embed.NewValueCache())
	mistral := &match.Matcher{Emb: emb, Opts: match.Options{Theta: cfg.Theta}}
	tuner := &match.AutoTuner{Scorer: match.EmbedderScorer(emb)}
	if err := run("auto-tuned θ (Li et al.)", func(s *datagen.IntegrationSet) ([]match.Cluster, error) {
		return mistral.MatchAutoTuned(s.Columns, tuner)
	}); err != nil {
		return nil, err
	}
	if err := run(fmt.Sprintf("fixed θ=%.1f (paper)", cfg.Theta), func(s *datagen.IntegrationSet) ([]match.Cluster, error) {
		clusters, _, err := mistral.Match(context.Background(), s.Columns)
		return clusters, err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// FprintBaselines renders the related-work comparison.
func FprintBaselines(w io.Writer, rows []BaselineScore) {
	fmt.Fprintf(w, "%-26s %9s %9s %9s\n", "Method", "Precision", "Recall", "F1-Score")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %9.2f %9.2f %9.2f\n", r.Method, r.Precision, r.Recall, r.F1)
	}
}

// LexiconScore is one row of the finetuning ablation (A5): value-matching
// quality as a function of the embedder's entity-knowledge share — the
// offline stand-in for the paper's future work on finetuned value
// embedders.
type LexiconScore struct {
	Share float64
	metrics.PRF
}

// LexiconSweep evaluates Mistral-tier models with scaled entity-knowledge
// shares on the Auto-Join benchmark.
func LexiconSweep(cfg Config, shares []float64) ([]LexiconScore, error) {
	cfg = cfg.withDefaults()
	if len(shares) == 0 {
		shares = []float64{0, 0.5, 1.0, 2.0, 4.0}
	}
	sets := datagen.AutoJoin(datagen.AutoJoinConfig{
		Seed: cfg.Seed, Sets: cfg.Sets, ValuesPerColumn: cfg.ValuesPerColumn,
	})
	var out []LexiconScore
	for _, share := range shares {
		scores, err := scoreModel(embed.Cached(embed.NewTuned(share), embed.NewValueCache()), sets, cfg.Theta)
		if err != nil {
			return nil, err
		}
		out = append(out, LexiconScore{Share: share, PRF: metrics.Mean(scores)})
	}
	return out, nil
}

// FprintLexiconSweep renders the finetuning ablation.
func FprintLexiconSweep(w io.Writer, rows []LexiconScore) {
	fmt.Fprintf(w, "%8s %9s %9s %9s\n", "LexShare", "Precision", "Recall", "F1-Score")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.2f %9.2f %9.2f %9.2f\n", r.Share, r.Precision, r.Recall, r.F1)
	}
}

// FprintTable1 renders Table 1 in the paper's layout.
func FprintTable1(w io.Writer, rows []ModelScore) {
	fmt.Fprintf(w, "%-10s %9s %9s %9s\n", "Model", "Precision", "Recall", "F1-Score")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9.2f %9.2f %9.2f\n", displayName(r.Model), r.Precision, r.Recall, r.F1)
	}
}

// FprintEM renders the downstream entity-matching comparison.
func FprintEM(w io.Writer, r EMResult) {
	fmt.Fprintf(w, "%-22s %9s %9s %9s\n", "Integration", "Precision", "Recall", "F1-Score")
	fmt.Fprintf(w, "%-22s %8.0f%% %8.0f%% %8.0f%%\n", "Regular FD (ALITE)", r.Regular.Precision*100, r.Regular.Recall*100, r.Regular.F1*100)
	fmt.Fprintf(w, "%-22s %8.0f%% %8.0f%% %8.0f%%\n", "Fuzzy FD", r.Fuzzy.Precision*100, r.Fuzzy.Recall*100, r.Fuzzy.F1*100)
}

// FprintFigure3 renders the runtime series.
func FprintFigure3(w io.Writer, points []RuntimePoint) {
	fmt.Fprintf(w, "%12s %14s %14s %14s %12s\n", "InputTuples", "ALITE", "FuzzyFD", "MatchPhase", "OutputRows")
	for _, p := range points {
		fmt.Fprintf(w, "%12d %14s %14s %14s %12d\n",
			p.InputTuples, round(p.ALITE), round(p.FuzzyFD), round(p.MatchShare), p.OutputRows)
	}
}

// FprintThetaSweep renders the threshold ablation.
func FprintThetaSweep(w io.Writer, rows []ThetaScore) {
	fmt.Fprintf(w, "%6s %9s %9s %9s\n", "Theta", "Precision", "Recall", "F1-Score")
	for _, r := range rows {
		fmt.Fprintf(w, "%6.2f %9.2f %9.2f %9.2f\n", r.Theta, r.Precision, r.Recall, r.F1)
	}
}

func round(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

func displayName(model string) string {
	switch model {
	case embed.FastText:
		return "FastText"
	case embed.BERT:
		return "BERT"
	case embed.RoBERTa:
		return "RoBERTa"
	case embed.Llama3:
		return "Llama3"
	case embed.Mistral:
		return "Mistral"
	}
	return model
}
