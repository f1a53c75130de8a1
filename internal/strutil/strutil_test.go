package strutil

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFold(t *testing.T) {
	cases := map[string]string{
		"  Hello   World ": "hello world",
		"ABC":              "abc",
		"":                 "",
		"\t\n":             "",
		"a  b\tc":          "a b c",
		"Héllo":            "héllo",
	}
	for in, want := range cases {
		if got := Fold(in); got != want {
			t.Errorf("Fold(%q)=%q want %q", in, got, want)
		}
	}
}

func TestStripPunct(t *testing.T) {
	cases := map[string]string{
		"U.S.A.":      "USA",
		"rock-n-roll": "rocknroll",
		"a b":         "a b",
		"$100":        "100",
	}
	for in, want := range cases {
		if got := StripPunct(in); got != want {
			t.Errorf("StripPunct(%q)=%q want %q", in, got, want)
		}
	}
}

func TestTokens(t *testing.T) {
	got := Tokens("New-Delhi (IN) 2021")
	want := []string{"new", "delhi", "in", "2021"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens=%v want %v", got, want)
	}
	if got := Tokens("  !!  "); len(got) != 0 {
		t.Errorf("Tokens of punctuation=%v", got)
	}
}

func TestSortedTokenSet(t *testing.T) {
	if got := SortedTokenSet("Miller, Renée J."); got != SortedTokenSet("Renée J Miller") {
		t.Errorf("token-set keys differ: %q", got)
	}
	if got := SortedTokenSet("b a b"); got != "a b" {
		t.Errorf("SortedTokenSet=%q", got)
	}
	if got := SortedTokenSet(""); got != "" {
		t.Errorf("SortedTokenSet('')=%q", got)
	}
}

func TestIsUpperish(t *testing.T) {
	cases := map[string]bool{"USA": true, "NY": true, "Ny": false, "123": false, "U.S.": true, "usa": false}
	for in, want := range cases {
		if got := IsUpperish(in); got != want {
			t.Errorf("IsUpperish(%q)=%v want %v", in, got, want)
		}
	}
}

func TestCharNGrams(t *testing.T) {
	got := CharNGrams("ab", 2, true) // "#ab#"
	want := []string{"#a", "ab", "b#"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CharNGrams=%v want %v", got, want)
	}
	if got := CharNGrams("a", 3, false); got != nil {
		t.Errorf("short unpadded should be nil: %v", got)
	}
	if got := CharNGrams("a", 5, true); !reflect.DeepEqual(got, []string{"#a#"}) {
		t.Errorf("short padded=%v", got)
	}
	if got := CharNGrams("abc", 0, false); got != nil {
		t.Errorf("n=0 should be nil: %v", got)
	}
}

func TestFNV1aIsTheConcatenationHash(t *testing.T) {
	f := func(prefix, s string) bool {
		h := fnv.New32a()
		h.Write([]byte(prefix + s))
		return FNV1a(prefix, s) == h.Sum32()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if n := testing.AllocsPerRun(100, func() { FNV1a("G:", "abc") }); n != 0 {
		t.Errorf("FNV1a allocates %v times per call", n)
	}
}

func TestQGramJaccard(t *testing.T) {
	if got := QGramJaccard("abc", "abc", 2); got != 1 {
		t.Errorf("identical strings=%v", got)
	}
	if got := QGramJaccard("", "", 2); got != 1 {
		t.Errorf("empty strings=%v", got)
	}
	ab := QGramJaccard("berlin", "berlinn", 3)
	cd := QGramJaccard("berlin", "toronto", 3)
	if ab <= cd {
		t.Errorf("typo pair (%v) should beat unrelated pair (%v)", ab, cd)
	}
}

func TestTokenJaccard(t *testing.T) {
	if got := TokenJaccard("new york city", "city of new york"); got != 3.0/4.0 {
		t.Errorf("TokenJaccard=%v", got)
	}
	if got := TokenJaccard("", ""); got != 1 {
		t.Errorf("empty=%v", got)
	}
}

func TestPrefixes(t *testing.T) {
	got := Prefixes("univ", 2, 6)
	want := []string{"un", "uni", "univ"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Prefixes=%v want %v", got, want)
	}
}

func TestJoinInitials(t *testing.T) {
	if got := JoinInitials("New Delhi"); got != "nd" {
		t.Errorf("JoinInitials=%q", got)
	}
	if got := JoinInitials("United States of America"); got != "usoa" {
		t.Errorf("JoinInitials=%q", got)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"berlin", "berlinn", 1},
		{"héllo", "hello", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

// Properties of Levenshtein: symmetry, identity, and the unit upper bound
// for single-character appends.
func TestLevenshteinProperties(t *testing.T) {
	alphabet := []rune("abcde")
	randStr := func(r *rand.Rand) string {
		n := r.Intn(8)
		s := make([]rune, n)
		for i := range s {
			s[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(s)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randStr(r)
		b := randStr(r)
		d := Levenshtein(a, b)
		if d != Levenshtein(b, a) {
			return false
		}
		if (d == 0) != (a == b) {
			return false
		}
		if Levenshtein(a, a+"x") != 1 {
			return false
		}
		// Triangle inequality through a third string.
		c := randStr(r)
		if d > Levenshtein(a, c)+Levenshtein(c, b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinSim(t *testing.T) {
	if got := LevenshteinSim("abc", "abc"); got != 1 {
		t.Errorf("identical=%v", got)
	}
	if got := LevenshteinSim("", ""); got != 1 {
		t.Errorf("empty=%v", got)
	}
	if got := LevenshteinSim("abc", "xyz"); got != 0 {
		t.Errorf("disjoint=%v", got)
	}
}

func TestJaroWinkler(t *testing.T) {
	if got := JaroWinkler("martha", "martha"); got != 1 {
		t.Errorf("identical=%v", got)
	}
	if got := JaroWinkler("abc", ""); got != 0 {
		t.Errorf("vs empty=%v", got)
	}
	// Classic reference pair.
	got := JaroWinkler("martha", "marhta")
	if got < 0.95 || got > 0.97 {
		t.Errorf("martha/marhta=%v want ≈0.961", got)
	}
	if JaroWinkler("berlin", "berlinn") <= JaroWinkler("berlin", "boston") {
		t.Error("typo pair should beat unrelated pair")
	}
}

func TestJaroWinklerBounds(t *testing.T) {
	f := func(a, b string) bool {
		v := JaroWinkler(a, b)
		return v >= 0 && v <= 1 && v == JaroWinkler(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSoundex(t *testing.T) {
	cases := map[string]string{
		"Robert":   "r163",
		"Rupert":   "r163",
		"Ashcraft": "a261", // h is transparent
		"Tymczak":  "t522",
		"Pfister":  "p236",
		"":         "",
		"123":      "",
	}
	for in, want := range cases {
		if got := Soundex(in); got != want {
			t.Errorf("Soundex(%q)=%q want %q", in, got, want)
		}
	}
}

func TestConsonantSkeleton(t *testing.T) {
	if ConsonantSkeleton("Berlinn") != ConsonantSkeleton("Berlin") {
		t.Error("skeleton should absorb doubled consonants")
	}
	if got := ConsonantSkeleton("Berlin"); got != "brln" {
		t.Errorf("ConsonantSkeleton=%q", got)
	}
	if got := ConsonantSkeleton("aeiou"); got != "" {
		t.Errorf("vowels only=%q", got)
	}
}

func TestPhoneticKey(t *testing.T) {
	if got := PhoneticKey("New Delhi"); got != "n000-d400" {
		t.Errorf("PhoneticKey=%q", got)
	}
	if got := PhoneticKey(""); got != "" {
		t.Errorf("empty=%q", got)
	}
}

func TestAbbrevSignature(t *testing.T) {
	cases := map[string]string{
		"New York":   "ny",
		"NY":         "ny",
		"University": "",
		"":           "",
		"usa":        "usa",
	}
	for in, want := range cases {
		if got := AbbrevSignature(in); got != want {
			t.Errorf("AbbrevSignature(%q)=%q want %q", in, got, want)
		}
	}
	if AbbrevSignature("New York") != AbbrevSignature("NY") {
		t.Error("initialism should collide with its expansion")
	}
}

func TestIsInitialismOf(t *testing.T) {
	if !IsInitialismOf("nd", "New Delhi") {
		t.Error("nd / New Delhi")
	}
	if !IsInitialismOf("USA", "United states of america") {
		t.Error("USA should match case-insensitively")
	}
	if IsInitialismOf("nd", "Delhi") {
		t.Error("single-token long should not match")
	}
	if IsInitialismOf("new delhi", "New Delhi") {
		t.Error("multi-token short should not match")
	}
}

func TestIsTruncationOf(t *testing.T) {
	if !IsTruncationOf("Univ.", "University") {
		t.Error("Univ. / University")
	}
	if !IsTruncationOf("corp", "Corporation") {
		t.Error("corp / Corporation")
	}
	if IsTruncationOf("University", "Univ") {
		t.Error("longer cannot truncate shorter")
	}
	if IsTruncationOf("x", "xylophone") {
		t.Error("single-rune truncations are too ambiguous")
	}
}

func TestExpandSignatures(t *testing.T) {
	sigs := ExpandSignatures("New York")
	want := map[string]bool{"new york": true, "ny": true, "nwrk": false}
	for k, mustHave := range want {
		found := false
		for _, s := range sigs {
			if s == k {
				found = true
			}
		}
		if found != mustHave && mustHave {
			t.Errorf("signature %q missing from %v", k, sigs)
		}
	}
	if got := ExpandSignatures(""); len(got) != 0 {
		t.Errorf("empty input should yield no signatures: %v", got)
	}
}
