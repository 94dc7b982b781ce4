package mpi

// This file implements the collectives the tree-code needs, as generic
// functions over a *Comm (Go methods cannot be generic). All are built on
// the eager point-to-point layer with per-operation tags, so concurrent
// point-to-point traffic (the LET exchange) cannot interfere with them.

// Bcast distributes root's value to every rank and returns it.
// nbytes meters the per-destination payload size.
func Bcast[T any](c *Comm, root int, v T, nbytes int) T {
	tag := c.nextCollTag()
	if c.rank == root {
		for r := 0; r < c.Size(); r++ {
			if r != root {
				c.send(r, tag, v, nbytes)
			}
		}
		return v
	}
	return c.Recv(root, tag).(T)
}

// Gather collects one value per rank at root. Non-root ranks receive nil.
func Gather[T any](c *Comm, root int, v T, nbytes int) []T {
	tag := c.nextCollTag()
	if c.rank != root {
		c.send(root, tag, v, nbytes)
		return nil
	}
	out := make([]T, c.Size())
	out[root] = v
	for r := 0; r < c.Size(); r++ {
		if r != root {
			out[r] = c.Recv(r, tag).(T)
		}
	}
	return out
}

// Allgather collects one value per rank at every rank, indexed by rank.
func Allgather[T any](c *Comm, v T, nbytes int) []T {
	all := Gather(c, 0, v, nbytes)
	return Bcast(c, 0, all, nbytes*c.Size())
}

// Allreduce combines one value per rank with op (assumed associative and
// commutative) and returns the result on every rank.
func Allreduce[T any](c *Comm, v T, op func(a, b T) T, nbytes int) T {
	all := Gather(c, 0, v, nbytes)
	if c.rank == 0 {
		acc := all[0]
		for _, x := range all[1:] {
			acc = op(acc, x)
		}
		return Bcast(c, 0, acc, nbytes)
	}
	return Bcast(c, 0, v, nbytes) // value ignored on root path; root sends acc
}

// Alltoallv sends send[r] to each rank r and returns the slices received
// from every rank, indexed by source. elemBytes meters the per-element wire
// size. send[c.Rank()] is delivered locally without metering.
//
// The returned slices never alias the caller's send buffers, on either
// transport: the wire transport deep-copies by serializing, and here the
// in-process path copies every outgoing slice (and the self-slice) before
// handing it over, so callers may reuse their send buffers immediately.
func Alltoallv[T any](c *Comm, send [][]T, elemBytes int) [][]T {
	if len(send) != c.Size() {
		panic("mpi: Alltoallv needs one send slice per rank")
	}
	wire := c.w.tr.Wire()
	tag := c.nextCollTag()
	for r := 0; r < c.Size(); r++ {
		if r == c.rank {
			continue
		}
		out := send[r]
		if !wire && out != nil {
			out = append(make([]T, 0, len(out)), out...)
		}
		c.send(r, tag, out, len(send[r])*elemBytes)
	}
	recv := make([][]T, c.Size())
	if self := send[c.rank]; self != nil {
		recv[c.rank] = append(make([]T, 0, len(self)), self...)
	}
	for r := 0; r < c.Size(); r++ {
		if r == c.rank {
			continue
		}
		recv[r] = c.Recv(r, tag).([]T)
	}
	return recv
}
