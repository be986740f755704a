package alloccheck

import (
	"fmt"

	"gpupower/internal/lint"
)

// CheckModule proves every annotated root of the module enclosing dir over
// its production sources — the same proof `gpowerlint ./...` runs after its
// analyzers, loaded here without _test.go files since nothing else needs
// them.
func CheckModule(dir string) (*Result, error) {
	root, modPath, err := lint.FindModule(dir)
	if err != nil {
		return nil, err
	}
	loader := lint.NewLoader(root, modPath)
	loader.Tests = false
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, fmt.Errorf("alloccheck: load: %w", err)
	}
	return Check(pkgs, modPath), nil
}
