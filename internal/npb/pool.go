package npb

import "maia/internal/bufpool"

// Package-level free lists for the kernels' transient buffers: FFT
// pencil scratch and grids, transpose payloads, and the float<->byte
// conversion buffers on the MPI paths. Reuse is host-memory-only — no
// modeled (virtual-time) number depends on where a buffer came from.
var (
	c128Pool bufpool.Pool[complex128]
	f64Pool  bufpool.Pool[float64]
	bytePool bufpool.Pool[byte]
)

// NewPooledFTGrid is NewFTGrid drawing the backing array from the
// package free list; pair with Free when the grid's lifetime ends.
func NewPooledFTGrid(nx, ny, nz int) *FTGrid {
	return &FTGrid{Nx: nx, Ny: ny, Nz: nz, V: c128Pool.GetZeroed(nx * ny * nz)}
}

// Free recycles the grid's backing array. The grid must not be used
// afterwards.
func (g *FTGrid) Free() {
	c128Pool.Put(g.V)
	g.V = nil
}
