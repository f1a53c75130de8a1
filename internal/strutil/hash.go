package strutil

// 32-bit FNV-1a parameters (hash/fnv).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// FNV1a returns the 32-bit FNV-1a hash of prefix followed by s: the value
// hash/fnv's New32a sums for the bytes of prefix+s. FNV-1a consumes one
// byte at a time, so hashing the two parts in turn equals hashing their
// concatenation, which is never built: the call allocates nothing.
func FNV1a(prefix, s string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(prefix); i++ {
		h ^= uint32(prefix[i])
		h *= fnvPrime32
	}
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return h
}
