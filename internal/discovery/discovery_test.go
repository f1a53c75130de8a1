package discovery

import (
	"context"
	"testing"

	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/table"
)

func mkTable(name string, cols []string, rows ...[]string) *table.Table {
	t := table.New(name, cols...)
	for _, r := range rows {
		row := make(table.Row, len(r))
		for i, v := range r {
			row[i] = table.S(v)
		}
		t.MustAppendRow(row...)
	}
	return t
}

func corpus() (query *table.Table, tables []*table.Table) {
	query = mkTable("cities_q", []string{"city", "country"},
		[]string{"Berlin", "Germany"},
		[]string{"Toronto", "Canada"},
		[]string{"Barcelona", "Spain"},
	)
	unionable := mkTable("more_cities", []string{"town", "nation"},
		[]string{"Madrid", "Spain"},
		[]string{"Lisbon", "Portugal"},
		[]string{"Vienna", "Austria"},
	)
	joinable := mkTable("vaccination", []string{"place", "rate"},
		[]string{"Berlin", "63"},
		[]string{"Toronto", "83"},
		[]string{"Boston", "62"},
	)
	unrelated := mkTable("inventory", []string{"sku", "qty"},
		[]string{"SKU-1001", "5"},
		[]string{"SKU-2002", "9"},
		[]string{"SKU-3003", "2"},
	)
	return query, []*table.Table{unionable, joinable, unrelated, query}
}

func TestUnionables(t *testing.T) {
	query, tables := corpus()
	s := &Searcher{Emb: embed.NewMistral()}
	got, err := s.UnionablesContext(context.Background(), query, tables, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no unionable candidates")
	}
	// Both city-domain tables are legitimately unionable: more_cities
	// shares the semantic type (via the country-domain feature) and
	// vaccination shares actual city values. Order between them is a
	// judgment call; the unrelated table must not appear.
	found := map[string]bool{}
	for _, c := range got {
		found[c.Table.Name] = true
		if c.Table.Name == "inventory" {
			t.Errorf("unrelated table ranked as unionable (score %.2f)", c.Score)
		}
		if c.Kind != Unionable || c.QueryColumn != -1 {
			t.Errorf("candidate meta: %+v", c)
		}
	}
	if !found["more_cities"] {
		t.Errorf("semantically unionable table missing: %v", found)
	}
}

func TestJoinables(t *testing.T) {
	query, tables := corpus()
	s := &Searcher{Emb: embed.NewMistral()}
	got, err := s.JoinablesContext(context.Background(), query, tables, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no joinable candidates")
	}
	top := got[0]
	if top.Table.Name != "vaccination" {
		t.Errorf("top joinable=%s score=%.2f", top.Table.Name, top.Score)
	}
	// The matching pair is query.city × vaccination.place with 2/3 of the
	// query's cities contained.
	if top.QueryColumn != 0 || top.TableColumn != 0 {
		t.Errorf("join pair=(%d,%d)", top.QueryColumn, top.TableColumn)
	}
	if top.Score < 0.6 || top.Score > 0.7 {
		t.Errorf("containment=%.3f want ≈2/3", top.Score)
	}
}

func TestQueryExcludedFromResults(t *testing.T) {
	query, tables := corpus()
	s := &Searcher{Emb: embed.NewMistral()}
	u, err := s.UnionablesContext(context.Background(), query, tables, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range u {
		if c.Table == query {
			t.Error("query returned as its own candidate")
		}
	}
}

func TestSearcherErrors(t *testing.T) {
	s := &Searcher{}
	if _, err := s.UnionablesContext(context.Background(), nil, nil, 1); err == nil {
		t.Error("nil embedder accepted (union)")
	}
	if _, err := s.JoinablesContext(context.Background(), nil, nil, 1); err == nil {
		t.Error("nil embedder accepted (join)")
	}
}

func TestMinScoreFilter(t *testing.T) {
	query, tables := corpus()
	s := &Searcher{Emb: embed.NewMistral(), MinScore: 0.99}
	got, err := s.JoinablesContext(context.Background(), query, tables, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("strict MinScore should filter everything: %+v", got)
	}
}

func TestKindString(t *testing.T) {
	if Unionable.String() != "unionable" || Joinable.String() != "joinable" {
		t.Error("kind names")
	}
}
