package nullmodel

// edgeSet is a set of packed edge keys (see pack) held in one flat
// open-addressing table: multiplicative hashing, linear probing and
// backward-shift deletion, so a swap chain's millions of deletes leave no
// tombstones behind. reset sizes the table to a power of two of at least
// twice the keys it must hold and refills it in place, so a pooled set
// allocates only when it meets a larger graph.
//
// The empty slot is emptyKey = pack(-1, -1), a self-loop on an id no
// graph has; no caller stores it.
type edgeSet struct {
	slots []uint64
	shift uint // 64 − log2(len(slots)): hash bits kept by home
}

const emptyKey = ^uint64(0)

// reset empties s and sizes it to hold up to n keys at load ≤ ½.
func (s *edgeSet) reset(n int) {
	size, shift := 2, uint(63)
	for size < 2*n {
		size <<= 1
		shift--
	}
	if cap(s.slots) >= size {
		s.slots = s.slots[:size]
	} else {
		s.slots = make([]uint64, size)
	}
	for i := range s.slots {
		s.slots[i] = emptyKey
	}
	s.shift = shift
}

// home is k's first probe slot: the top bits of k times 2^64/φ.
func (s *edgeSet) home(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> s.shift
}

// has reports whether k is in s.
func (s *edgeSet) has(k uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := s.home(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return true
		case emptyKey:
			return false
		}
	}
}

// add inserts k and reports whether it was already a member, in which
// case s is unchanged. The caller keeps the count of keys within the n
// given to reset, so an empty slot always exists.
func (s *edgeSet) add(k uint64) (present bool) {
	mask := uint64(len(s.slots) - 1)
	for i := s.home(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return true
		case emptyKey:
			s.slots[i] = k
			return false
		}
	}
}

// del removes k if present. The keys after it in its probe cluster move
// back into the hole whenever the hole lies between their home slot and
// their current slot, so every key stays reachable from its home.
func (s *edgeSet) del(k uint64) {
	mask := uint64(len(s.slots) - 1)
	i := s.home(k)
	for s.slots[i] != k {
		if s.slots[i] == emptyKey {
			return
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.slots[j] != emptyKey; j = (j + 1) & mask {
		if (j-s.home(s.slots[j]))&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = emptyKey
}
