//go:build !amd64 || noasm

package grav

// takesFloat32 reports which of c's two evaluations the float32 kernels
// take: none on the scalar tier.
func takesFloat32(*kernelCase) (pp, pc bool) { return false, false }

// forEachTier runs f once: the scalar loops are the only tier.
func forEachTier(f func()) { f() }
