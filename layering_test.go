package bonsai

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestEngineLayersDoNotImportObs keeps the observability package above the
// engine: the kernels, the trees, the domain decomposition and the message
// layer must not reach bonsai/internal/obs, directly or through any other
// package of this module. Only sim and the layers above it record telemetry.
func TestEngineLayersDoNotImportObs(t *testing.T) {
	const module, forbidden = "bonsai", "bonsai/internal/obs"
	imports := map[string][]string{} // package -> its in-module imports (non-test files)
	var load func(path string)
	load = func(path string) {
		if _, done := imports[path]; done {
			return
		}
		dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, module), "/"))
		pkg, err := build.ImportDir(filepath.Join(".", dir), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		imports[path] = nil
		for _, imp := range pkg.Imports {
			if imp == module || strings.HasPrefix(imp, module+"/") {
				imports[path] = append(imports[path], imp)
				load(imp)
			}
		}
	}
	for _, layer := range []string{"grav", "keys", "vec", "body", "par", "psort",
		"octree", "lettree", "domain", "mpi"} {
		root := module + "/internal/" + layer
		load(root)
		// Breadth-first from the layer, remembering how each package was
		// reached so a failure names the import chain.
		via := map[string]string{root: ""}
		for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
			p := queue[0]
			for _, imp := range imports[p] {
				if _, seen := via[imp]; seen {
					continue
				}
				via[imp] = p
				if imp == forbidden {
					chain := strings.TrimPrefix(p, module+"/")
					for q := via[p]; q != ""; q = via[q] {
						chain = strings.TrimPrefix(q, module+"/") + " -> " + chain
					}
					t.Errorf("%s imports %s", chain, forbidden)
					continue
				}
				queue = append(queue, imp)
			}
		}
	}
}
