package core

import (
	"reflect"
	"sync/atomic"
	"testing"

	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/embed"
)

// countingEmbedder counts the embeddings it computes.
type countingEmbedder struct {
	embed.Embedder
	calls atomic.Int64
}

func (c *countingEmbedder) Embed(v string) embed.Vector {
	c.calls.Add(1)
	return c.Embedder.Embed(v)
}

// The session's value cache is its only embedding memo: fed IMDB tables one
// at a time, with an integration after each, the session embeds each
// distinct value exactly once over its life, and every embedding is a cache
// miss.
func TestSessionEmbedsEachValueOnce(t *testing.T) {
	emb := &countingEmbedder{Embedder: embed.NewMistral()}
	s := NewSession(Config{Embedder: emb, MatchWorkers: 4})
	for _, tbl := range datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: 2000}) {
		s.Add(tbl)
		if _, err := s.Integrate(); err != nil {
			t.Fatal(err)
		}
	}
	cache := s.EmbeddingCache()
	calls := emb.calls.Load()
	if calls == 0 || calls != int64(cache.Len()) || calls != cache.Misses() {
		t.Errorf("%d embeddings for %d cached values and %d misses, want all equal and nonzero",
			calls, cache.Len(), cache.Misses())
	}
	if cache.Hits() == 0 {
		t.Error("no cache hits across the session's integrations")
	}
}

// A second Integrate with nothing added is a pure cache replay: no dirty
// components, no re-closed tuples, every assignment round replayed, and a
// byte-identical result.
func TestSessionRepeatIntegrateIsNoOpDelta(t *testing.T) {
	s := NewSession(Config{})
	s.Add(fig1()...)
	first, err := s.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	if first.FDStats.DirtyComponents != first.FDStats.Components {
		t.Errorf("first run: %d of %d components closed — everything should be dirty",
			first.FDStats.DirtyComponents, first.FDStats.Components)
	}
	hitsBefore := s.EmbeddingCache().Hits()

	second, err := s.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	if !second.Table.Equal(first.Table) || !reflect.DeepEqual(second.Prov, first.Prov) {
		t.Error("repeat Integrate changed the result")
	}
	if second.FDStats.DirtyComponents != 0 || second.FDStats.ReclosedTuples != 0 {
		t.Errorf("repeat Integrate did closure work: dirty=%d reclosed=%d",
			second.FDStats.DirtyComponents, second.FDStats.ReclosedTuples)
	}
	if second.FDStats.Merges != 0 || second.FDStats.MergeAttempts != 0 {
		t.Errorf("repeat Integrate attempted merges: %+v", second.FDStats)
	}
	if ms := second.MatchStats; ms.Rounds == 0 || ms.RoundsReplayed != ms.Rounds {
		t.Errorf("repeat Integrate replayed %d of %d assignment rounds, want all of a nonzero number", ms.RoundsReplayed, ms.Rounds)
	}
	if s.EmbeddingCache().Hits() <= hitsBefore {
		t.Error("replay did not hit the embedding cache")
	}
	if s.Integrations() != 2 {
		t.Errorf("Integrations()=%d want 2", s.Integrations())
	}
}

// A fuzzy session fed the IMDB-shaped tables one at a time replays every
// assignment round whose inputs an earlier integration met: of the 16
// rounds its six integrations meet, 10 replay, and the result is still the
// one-shot pipeline's.
func TestSessionReplaysMatchRounds(t *testing.T) {
	tables := datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: 5000})
	s := NewSession(Config{})
	rounds, replayed := 0, 0
	var got *Result
	for _, tbl := range tables {
		s.Add(tbl)
		var err error
		if got, err = s.Integrate(); err != nil {
			t.Fatal(err)
		}
		rounds += got.MatchStats.Rounds
		replayed += got.MatchStats.RoundsReplayed
	}
	if rounds != 16 || replayed != 10 {
		t.Errorf("%d of %d rounds replayed, want 10 of 16", replayed, rounds)
	}
	want, err := Integrate(tables, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Table.Equal(want.Table) || !reflect.DeepEqual(got.Prov, want.Prov) {
		t.Error("session differs from the one-shot pipeline")
	}
	if got.MatchStats.Rounds != want.MatchStats.Rounds || want.MatchStats.RoundsReplayed != 0 {
		t.Errorf("one-shot: %d rounds, %d replayed; session's last integration: %d rounds",
			want.MatchStats.Rounds, want.MatchStats.RoundsReplayed, got.MatchStats.Rounds)
	}
}

// The fuzzy rewrite cache: a repeat Integrate (every round replayed)
// serves every rewritten table from the memoized views — same pointers, so
// the FD index's row verification also short-circuits — instead of cloning
// and re-rewriting the accumulated history; growing the session keeps the
// cached views for unchanged tables and the result stays byte-identical to
// the one-shot pipeline.
func TestSessionRewriteCache(t *testing.T) {
	tables := fig1()
	s := NewSession(Config{})
	s.Add(tables[0], tables[1])
	if _, err := s.Integrate(); err != nil {
		t.Fatal(err)
	}
	if s.RewriteCacheHits() != 0 {
		t.Errorf("first Integrate reported %d rewrite-cache hits", s.RewriteCacheHits())
	}
	work1, _, _, _, err := s.prepare(t.Context(), s.tables)
	if err != nil {
		t.Fatal(err)
	}
	work2, _, _, hits2, err := s.prepare(t.Context(), s.tables)
	if err != nil {
		t.Fatal(err)
	}
	if hits2 == 0 {
		t.Error("repeat prepare did not hit the rewrite cache")
	}
	if _, err := s.Integrate(); err != nil {
		t.Fatal(err)
	}
	if s.RewriteCacheHits() == 0 {
		t.Error("a repeat Integrate published no rewrite-cache hits")
	}
	rewrittenAny := false
	for i := range work1 {
		if work1[i] != tables[i] {
			rewrittenAny = true
		}
		if work1[i] != work2[i] {
			t.Errorf("table %d: cached rewritten view not pointer-stable across calls", i)
		}
	}
	if !rewrittenAny {
		t.Fatal("fixture produced no rewrites — the cache path is untested")
	}

	s.Add(tables[2])
	got, err := s.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Integrate(tables, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Table.Equal(want.Table) || !reflect.DeepEqual(got.Prov, want.Prov) {
		t.Error("session with rewrite cache differs from one-shot pipeline")
	}
}

// The fuzzy session survives cluster drift: when a later batch changes a
// set's representatives, the FD index rebuilds and the result still equals
// the one-shot pipeline. (Drift detection itself is tested at the fd
// level; this exercises it through the staged pipeline.)
func TestSessionClusterDriftStaysCorrect(t *testing.T) {
	tables := fig1()
	s := NewSession(Config{})
	s.Add(tables[0], tables[1])
	if _, err := s.Integrate(); err != nil {
		t.Fatal(err)
	}
	s.Add(tables[2])
	got, err := s.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Integrate(tables, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Table.Equal(want.Table) || !reflect.DeepEqual(got.Prov, want.Prov) {
		t.Errorf("incremental fuzzy result differs from one-shot:\ngot:\n%v\nwant:\n%v", got.Table, want.Table)
	}
}
