package congest

// Scratch is a small arena of reusable protocol-side buffers, one per
// network. Steady-state engine rounds are allocation-free (see README.md),
// which leaves phase setup as the protocol layer's dominant allocation
// source: many phases want a per-node or per-port flag array that dies with
// the phase. Scratch recycles those.
//
// Every getter returns a buffer cleared to zero values, exactly as make()
// would hand it out, so swapping make for Scratch cannot change protocol
// outputs. What changes is ownership: each getter recycles ONE buffer, and
// the returned slice is valid only until the next call to the same getter
// on the same network. That contract fits the phase-setup pattern the
// arena exists for — fill the buffer, read it from the phase's NodeProc,
// let go when RunNodes returns — and the engine runs one phase at a time
// (phases share the network's clock and delivery buffers), so two phases'
// buffers cannot overlap. Do NOT use Scratch for state that outlives a
// phase or is returned to a caller.
type Scratch struct {
	net    *Network
	bools  []bool
	int64s []int64
	ports  []bool
}

// Scratch returns the network's buffer arena (allocated on first use).
func (n *Network) Scratch() *Scratch {
	if n.scratch == nil {
		n.scratch = &Scratch{net: n}
	}
	return n.scratch
}

// Bools returns a cleared []bool of length n (per-node flags for one phase).
// Valid until the next Bools call on this network.
func (s *Scratch) Bools(n int) []bool {
	if cap(s.bools) < n {
		s.bools = make([]bool, n)
	}
	b := s.bools[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// Int64s returns a cleared []int64 of length n. Valid until the next Int64s
// call on this network.
func (s *Scratch) Int64s(n int) []int64 {
	if cap(s.int64s) < n {
		s.int64s = make([]int64, n)
	}
	b := s.int64s[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

// PortBools returns a cleared []bool over the network's 2m half-edges,
// indexed by CSR port offset (RowStart[v]+p) — the flat shape SamePart-style
// per-port flags flatten onto. Valid until the next PortBools call on this
// network.
func (s *Scratch) PortBools() []bool {
	n := len(s.net.csr.PortTo)
	if cap(s.ports) < n {
		s.ports = make([]bool, n)
	}
	b := s.ports[:n]
	for i := range b {
		b[i] = false
	}
	return b
}
