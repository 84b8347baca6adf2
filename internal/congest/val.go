package congest

// Val is an O(log n)-bit aggregate value: two machine words, sized to fit in
// a single CONGEST message. Part-Wise Aggregation (Definition 1.1) computes
// a commutative, associative function over such values; two words cover the
// paper's uses (counts, min/max IDs, and lexicographic (weight, edge-id)
// pairs for MST).
type Val struct {
	A, B int64
}

// PosInf and NegInf are the aggregation identities for values that fit in
// 62 bits (IDs, distances, weights): PosInf is MinPair's and NegInf
// MaxPair's. Each is one named symbol, not a payload, so a message carrying
// one stays within the model's O(log n) bits.
const (
	PosInf int64 = 1 << 62
	NegInf int64 = -(1 << 62)
)

// Combine is a commutative, associative aggregation function over Val, the
// "f" of Definition 1.1.
type Combine func(x, y Val) Val

// Standard aggregation functions.

// MinPair returns the lexicographically smaller of x and y.
func MinPair(x, y Val) Val {
	if x.A < y.A || (x.A == y.A && x.B <= y.B) {
		return x
	}
	return y
}

// MaxPair returns the lexicographically larger of x and y.
func MaxPair(x, y Val) Val {
	if x.A > y.A || (x.A == y.A && x.B >= y.B) {
		return x
	}
	return y
}

// SumPair adds component-wise.
func SumPair(x, y Val) Val { return Val{A: x.A + y.A, B: x.B + y.B} }

// OrPair ors component-wise.
func OrPair(x, y Val) Val { return Val{A: x.A | y.A, B: x.B | y.B} }
