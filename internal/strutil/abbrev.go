package strutil

// AbbrevSignature returns a signature under which a multi-token name and its
// initialism collide: for a multi-token value the concatenated initials
// ("New York" → "ny"); for a single short token the token itself lowercased
// ("NY" → "ny"). Longer single tokens return "" because they are unlikely
// initialisms.
func AbbrevSignature(s string) string {
	toks := Tokens(s)
	switch {
	case len(toks) == 0:
		return ""
	case len(toks) == 1:
		if len(toks[0]) <= 5 {
			return toks[0]
		}
		return ""
	default:
		return JoinInitials(s)
	}
}
