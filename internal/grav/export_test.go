package grav

// ForEachTier is forEachTier for the external tests: they walk trees built by
// internal/octree, which imports this package.
var ForEachTier = forEachTier
