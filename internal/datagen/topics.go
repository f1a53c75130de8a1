package datagen

import (
	"fmt"
	"math/rand"

	"fuzzyfd/internal/lexicon"
)

// Topic generates canonical entity surface forms for one of the 17 subject
// areas the Auto-Join benchmark covers (songs, government officials, and so
// on). FromLexicon marks topics whose values are knowledge-base entities,
// enabling the synonym/code transformation (country names ↔ ISO codes).
type Topic struct {
	Name        string
	FromLexicon bool
	// gen produces up to n distinct canonical values.
	gen func(n int, r *rand.Rand) []string
}

// Values returns up to n distinct canonical values for the topic.
func (t Topic) Values(n int, r *rand.Rand) []string {
	return t.gen(n, r)
}

// Topics returns the 17 topic generators in a fixed order.
func Topics() []Topic {
	return []Topic{
		{Name: "songs", gen: genSongs},
		{Name: "government officials", gen: genOfficials},
		{Name: "cities", gen: pool(cityNames)},
		{Name: "countries", FromLexicon: true, gen: lexPool("country/")},
		{Name: "universities", gen: genUniversities},
		{Name: "companies", gen: genCompanies},
		{Name: "movies", gen: genMovies},
		{Name: "athletes", gen: genAthletes},
		{Name: "airports", gen: genAirports},
		{Name: "currencies", FromLexicon: true, gen: lexPool("currency/")},
		{Name: "languages", FromLexicon: true, gen: lexPool("language/")},
		{Name: "elements", FromLexicon: true, gen: lexPool("element/")},
		{Name: "car models", gen: genCars},
		{Name: "animals", gen: pool(animalNames)},
		{Name: "foods", gen: pool(foodNames)},
		{Name: "sports teams", gen: genTeams},
		{Name: "products", gen: genProducts},
	}
}

// pool samples without replacement from a fixed list.
func pool(list []string) func(int, *rand.Rand) []string {
	return func(n int, r *rand.Rand) []string {
		perm := r.Perm(len(list))
		if n > len(list) {
			n = len(list)
		}
		out := make([]string, n)
		for i := 0; i < n; i++ {
			out[i] = list[perm[i]]
		}
		return out
	}
}

// lexPool samples canonical forms of lexicon entries under a namespace.
func lexPool(prefix string) func(int, *rand.Rand) []string {
	return func(n int, r *rand.Rand) []string {
		entries := lexicon.Full().EntriesWithPrefix(prefix)
		perm := r.Perm(len(entries))
		if n > len(entries) {
			n = len(entries)
		}
		out := make([]string, n)
		for i := 0; i < n; i++ {
			out[i] = entries[perm[i]].Canonical
		}
		return out
	}
}

// sampleDistinct draws n distinct strings from gen, giving up after
// bounded retries (combinatorial generators can exhaust).
func sampleDistinct(n int, r *rand.Rand, gen func(*rand.Rand) string) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for tries := 0; len(out) < n && tries < n*50; tries++ {
		v := gen(r)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func genSongs(n int, r *rand.Rand) []string {
	return sampleDistinct(n, r, func(r *rand.Rand) string {
		switch r.Intn(3) {
		case 0:
			return fmt.Sprintf("The %s %s", adjectives[r.Intn(len(adjectives))], nouns[r.Intn(len(nouns))])
		case 1:
			return fmt.Sprintf("%s %s", adjectives[r.Intn(len(adjectives))], nouns[r.Intn(len(nouns))])
		default:
			return fmt.Sprintf("%s of the %s", nouns[r.Intn(len(nouns))], nouns[r.Intn(len(nouns))])
		}
	})
}

func genOfficials(n int, r *rand.Rand) []string {
	return sampleDistinct(n, r, func(r *rand.Rand) string {
		return fmt.Sprintf("%s %s %s",
			officialTitles[r.Intn(len(officialTitles))],
			firstNames[r.Intn(len(firstNames))],
			lastNames[r.Intn(len(lastNames))])
	})
}

func genUniversities(n int, r *rand.Rand) []string {
	return sampleDistinct(n, r, func(r *rand.Rand) string {
		city := cityNames[r.Intn(len(cityNames))]
		switch r.Intn(3) {
		case 0:
			return fmt.Sprintf("University of %s", city)
		case 1:
			return fmt.Sprintf("%s Institute of %s", city, fields[r.Intn(len(fields))])
		default:
			return fmt.Sprintf("%s State University", city)
		}
	})
}

func genCompanies(n int, r *rand.Rand) []string {
	return sampleDistinct(n, r, func(r *rand.Rand) string {
		return fmt.Sprintf("%s %s",
			companyRoots[r.Intn(len(companyRoots))],
			companySuffixes[r.Intn(len(companySuffixes))])
	})
}

func genMovies(n int, r *rand.Rand) []string {
	return sampleDistinct(n, r, func(r *rand.Rand) string {
		switch r.Intn(3) {
		case 0:
			return fmt.Sprintf("The %s %s", adjectives[r.Intn(len(adjectives))], nouns[r.Intn(len(nouns))])
		case 1:
			return fmt.Sprintf("%s in %s", nouns[r.Intn(len(nouns))], cityNames[r.Intn(len(cityNames))])
		default:
			return fmt.Sprintf("A %s of %s", nouns[r.Intn(len(nouns))], nouns[r.Intn(len(nouns))])
		}
	})
}

func genAthletes(n int, r *rand.Rand) []string {
	return sampleDistinct(n, r, func(r *rand.Rand) string {
		return fmt.Sprintf("%s %s", firstNames[r.Intn(len(firstNames))], lastNames[r.Intn(len(lastNames))])
	})
}

func genAirports(n int, r *rand.Rand) []string {
	return sampleDistinct(n, r, func(r *rand.Rand) string {
		city := airportCities[r.Intn(len(airportCities))]
		switch r.Intn(3) {
		case 0:
			return fmt.Sprintf("%s International Airport", city)
		case 1:
			return fmt.Sprintf("%s Regional Airport", city)
		default:
			return fmt.Sprintf("%s Municipal Airport", city)
		}
	})
}

func genCars(n int, r *rand.Rand) []string {
	return sampleDistinct(n, r, func(r *rand.Rand) string {
		return fmt.Sprintf("%s %s",
			carMakers[r.Intn(len(carMakers))],
			carModels[r.Intn(len(carModels))])
	})
}

func genTeams(n int, r *rand.Rand) []string {
	return sampleDistinct(n, r, func(r *rand.Rand) string {
		return fmt.Sprintf("%s %s",
			cityNames[r.Intn(len(cityNames))],
			sportsTeamSuffixes[r.Intn(len(sportsTeamSuffixes))])
	})
}

func genProducts(n int, r *rand.Rand) []string {
	return sampleDistinct(n, r, func(r *rand.Rand) string {
		return fmt.Sprintf("%s %s %s",
			companyRoots[r.Intn(len(companyRoots))],
			productCategories[r.Intn(len(productCategories))],
			[]string{"Pro", "Max", "Mini", "Lite", "Plus", "Ultra", "X", "S", "One", "Go"}[r.Intn(10)])
	})
}
