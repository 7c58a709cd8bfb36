package mpicore

import (
	"sort"

	"repro/internal/abi"
	"repro/internal/ops"
	"repro/internal/types"
)

// CommDup duplicates a communicator into a fresh context id. Like the real
// call it is collective; the barrier models the agreement round-trip and
// enforces that every member participates.
func (p *Proc) CommDup(c *Comm) (*Comm, int) {
	if code := p.Barrier(c); code != p.E.Success {
		return nil, code
	}
	c.ChldSeq++
	// Same members in the same order: share the parent's table and index.
	return &Comm{CID: p.pol.DeriveCID(c.CID, c.ChldSeq), Ranks: c.Ranks, MyPos: c.MyPos, inv: c.inv}, p.E.Success
}

// CommSplit partitions a communicator by color, ordering members by (key,
// parent rank). Color Undefined yields (nil, Success) — the null
// communicator. The membership exchange runs as an allgather on the
// parent, like the real implementations'.
func (p *Proc) CommSplit(c *Comm, color, key int) (*Comm, int) {
	if code := p.checkComm(c); code != p.E.Success {
		return nil, code
	}
	n := c.Size()
	mine := abi.Int64Bytes([]int64{int64(color), int64(key)})
	all := make([]byte, n*16)
	bt := p.Predef(types.KindByte)
	if code := p.Allgather(mine, 16, bt, all, 16, bt, c); code != p.E.Success {
		return nil, code
	}
	c.ChldSeq++
	ordinal := c.ChldSeq
	if color == p.K.Undefined {
		return nil, p.E.Success
	}
	type member struct{ key, parentRank int }
	var members []member
	for r := 0; r < n; r++ {
		vals := abi.Int64sOf(all[r*16 : (r+1)*16])
		if int(vals[0]) == color {
			members = append(members, member{key: int(vals[1]), parentRank: r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].parentRank < members[j].parentRank
	})
	ranks := make([]int, len(members))
	myPos := -1
	for i, m := range members {
		ranks[i] = c.Ranks[m.parentRank]
		if m.parentRank == c.MyPos {
			myPos = i
		}
	}
	// Mix the full color into the derivation ordinal (Weyl multiply):
	// every member of a subgroup agrees on (ordinal, color), so every
	// member derives the same cid, while distinct colors in the same
	// split can never alias. (The historical implementations truncated
	// the color to its low 8 bits, silently aliasing colors congruent
	// mod 256 onto one context id.)
	return newComm(p.pol.DeriveCID(c.CID, ordinal<<8^uint32(color)*0x9e3779b9), ranks, myPos), p.E.Success
}

// CommCreate builds a communicator from a subgroup; callers outside the
// group receive (nil, Success). Collective over the parent.
func (p *Proc) CommCreate(c *Comm, g *Group) (*Comm, int) {
	if code := p.checkComm(c); code != p.E.Success {
		return nil, code
	}
	if g == nil {
		return nil, p.E.ErrGroup
	}
	if code := p.Barrier(c); code != p.E.Success {
		return nil, code
	}
	c.ChldSeq++
	myPos := -1
	for i, w := range g.Ranks {
		if w == p.rank {
			myPos = i
		}
	}
	if myPos == -1 {
		return nil, p.E.Success
	}
	return newComm(p.pol.DeriveCID(c.CID, c.ChldSeq|0x40000000), append([]int(nil), g.Ranks...), myPos), p.E.Success
}

// CommGroup extracts a communicator's group.
func (p *Proc) CommGroup(c *Comm) (*Group, int) {
	if c == nil {
		return nil, p.E.ErrComm
	}
	return &Group{Ranks: append([]int(nil), c.Ranks...), MyPos: c.MyPos}, p.E.Success
}

// CommFree releases a dynamic communicator: its revocation and
// acknowledgement state go. The predefined communicators are refused.
func (p *Proc) CommFree(c *Comm) int {
	if c == nil {
		return p.E.ErrComm
	}
	if c == p.CommWorld || c == p.CommSelf {
		return p.E.ErrComm
	}
	p.ft.Forget(c.CID)
	return p.E.Success
}

// GroupSize mirrors MPI_Group_size.
func (p *Proc) GroupSize(g *Group) (int, int) {
	if g == nil {
		return 0, p.E.ErrGroup
	}
	return len(g.Ranks), p.E.Success
}

// GroupRank mirrors MPI_Group_rank (Undefined when not a member).
func (p *Proc) GroupRank(g *Group) (int, int) {
	if g == nil {
		return 0, p.E.ErrGroup
	}
	if g.MyPos < 0 {
		return p.K.Undefined, p.E.Success
	}
	return g.MyPos, p.E.Success
}

// GroupIncl selects the listed ranks into a new group, in order.
func (p *Proc) GroupIncl(g *Group, ranksIn []int) (*Group, int) {
	if g == nil {
		return nil, p.E.ErrGroup
	}
	worlds := make([]int, len(ranksIn))
	myPos := -1
	for i, r := range ranksIn {
		if r < 0 || r >= len(g.Ranks) {
			return nil, p.E.ErrRank
		}
		worlds[i] = g.Ranks[r]
		if worlds[i] == p.rank {
			myPos = i
		}
	}
	return &Group{Ranks: worlds, MyPos: myPos}, p.E.Success
}

// GroupExcl removes the listed ranks from a group, preserving order.
func (p *Proc) GroupExcl(g *Group, ranksOut []int) (*Group, int) {
	if g == nil {
		return nil, p.E.ErrGroup
	}
	excl := make(map[int]bool, len(ranksOut))
	for _, r := range ranksOut {
		if r < 0 || r >= len(g.Ranks) {
			return nil, p.E.ErrRank
		}
		excl[r] = true
	}
	out := &Group{MyPos: -1}
	for i, w := range g.Ranks {
		if excl[i] {
			continue
		}
		if w == p.rank {
			out.MyPos = len(out.Ranks)
		}
		out.Ranks = append(out.Ranks, w)
	}
	return out, p.E.Success
}

// GroupTranslateRanks maps ranks in a to their ranks in b (Undefined when
// absent), mirroring MPI_Group_translate_ranks.
func (p *Proc) GroupTranslateRanks(a *Group, ranks []int, b *Group) ([]int, int) {
	if a == nil || b == nil {
		return nil, p.E.ErrGroup
	}
	out := make([]int, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= len(a.Ranks) {
			return nil, p.E.ErrRank
		}
		out[i] = p.K.Undefined
		for j, w := range b.Ranks {
			if w == a.Ranks[r] {
				out[i] = j
				break
			}
		}
	}
	return out, p.E.Success
}

// TypeContiguous mirrors MPI_Type_contiguous.
func (p *Proc) TypeContiguous(count int, inner *Type) (*Type, int) {
	if inner == nil {
		return nil, p.E.ErrType
	}
	t, err := types.Contiguous(count, inner.T)
	if err != nil {
		return nil, p.E.ErrArg
	}
	return &Type{T: t}, p.E.Success
}

// TypeVector mirrors MPI_Type_vector.
func (p *Proc) TypeVector(count, blocklen, stride int, inner *Type) (*Type, int) {
	if inner == nil {
		return nil, p.E.ErrType
	}
	t, err := types.Vector(count, blocklen, stride, inner.T)
	if err != nil {
		return nil, p.E.ErrArg
	}
	return &Type{T: t}, p.E.Success
}

// TypeIndexed mirrors MPI_Type_indexed.
func (p *Proc) TypeIndexed(blocklens, displs []int, inner *Type) (*Type, int) {
	if inner == nil {
		return nil, p.E.ErrType
	}
	t, err := types.Indexed(blocklens, displs, inner.T)
	if err != nil {
		return nil, p.E.ErrArg
	}
	return &Type{T: t}, p.E.Success
}

// TypeCreateStruct mirrors MPI_Type_create_struct. Member types must be
// committed first (the type engine's flattening requirement).
func (p *Proc) TypeCreateStruct(blocklens, displs []int, typs []*Type) (*Type, int) {
	members := make([]*types.Type, len(typs))
	for i, dt := range typs {
		if dt == nil {
			return nil, p.E.ErrType
		}
		if err := dt.T.Commit(); err != nil {
			return nil, p.E.ErrType
		}
		members[i] = dt.T
	}
	t, err := types.Struct(blocklens, displs, members)
	if err != nil {
		return nil, p.E.ErrArg
	}
	return &Type{T: t}, p.E.Success
}

// TypeCommit mirrors MPI_Type_commit.
func (p *Proc) TypeCommit(dt *Type) int {
	if dt == nil {
		return p.E.ErrType
	}
	if err := dt.T.Commit(); err != nil {
		return p.E.ErrType
	}
	return p.E.Success
}

// TypeFree releases a dynamic datatype; predefined types are rejected.
func (p *Proc) TypeFree(dt *Type) int {
	if dt == nil {
		return p.E.ErrType
	}
	if dt.Prim.Valid() {
		return p.E.ErrType
	}
	return p.E.Success
}

// TypeSize mirrors MPI_Type_size (committing lazily for queries).
func (p *Proc) TypeSize(dt *Type) (int, int) {
	if dt == nil {
		return 0, p.E.ErrType
	}
	if err := dt.T.Commit(); err != nil {
		return 0, p.E.ErrType
	}
	return dt.T.Size(), p.E.Success
}

// TypeExtent mirrors MPI_Type_get_extent.
func (p *Proc) TypeExtent(dt *Type) (int, int) {
	if dt == nil {
		return 0, p.E.ErrType
	}
	if err := dt.T.Commit(); err != nil {
		return 0, p.E.ErrType
	}
	return dt.T.Extent(), p.E.Success
}

// GetCount mirrors MPI_Get_count over a received byte count.
func (p *Proc) GetCount(countBytes uint64, dt *Type) (int, int) {
	if dt == nil {
		return 0, p.E.ErrType
	}
	if err := dt.T.Commit(); err != nil {
		return 0, p.E.ErrType
	}
	sz := dt.T.Size()
	if sz == 0 {
		return 0, p.E.ErrType
	}
	if countBytes%uint64(sz) != 0 {
		return p.K.Undefined, p.E.Success
	}
	return int(countBytes / uint64(sz)), p.E.Success
}

// OpCreate registers a user reduction operator by registry name (see
// ops.RegisterUser); named registration is what lets user ops survive a
// checkpoint/restart.
func (p *Proc) OpCreate(name string, commute bool) (*Op, int) {
	if _, _, err := ops.LookupUser(name); err != nil {
		return nil, p.E.ErrOp
	}
	return &Op{User: name, Commute: commute}, p.E.Success
}

// OpFree releases a user operator; predefined operators are rejected.
func (p *Proc) OpFree(o *Op) int {
	if o == nil {
		return p.E.ErrOp
	}
	if o.User == "" {
		return p.E.ErrOp
	}
	return p.E.Success
}
