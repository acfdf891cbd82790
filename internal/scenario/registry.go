package scenario

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// The package registry: built-in scenarios register themselves from
// init, extensions from their own packages' init. Registration is
// write-once — two scenarios with one name is a programming error.
var (
	regMu    sync.RWMutex
	registry = make(map[string]Scenario)
)

// registered is a scenario as the registry serves it: its Info read
// once, and every Config resolved against its Params before use.
type registered struct {
	Scenario
	info Info
}

func (r registered) Info() Info { return r.info }

func (r registered) Points(cfg Config) ([]Point, error) {
	cfg, err := r.info.Resolve(cfg)
	if err != nil {
		return nil, err
	}
	return r.Scenario.Points(cfg)
}

func (r registered) Evaluate(ctx context.Context, cfg Config, pt Point, be Backend) (Result, error) {
	cfg, err := r.info.Resolve(cfg)
	if err != nil {
		return Result{}, err
	}
	return r.Scenario.Evaluate(ctx, cfg, pt, be)
}

// Register adds a scenario under its Info().Name. It panics on a
// duplicate or empty name: registration happens at init time, where a
// collision is a build defect, not a runtime condition.
func Register(s Scenario) {
	info := s.Info()
	name := info.Name
	if name == "" {
		panic("scenario: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", name))
	}
	registry[name] = registered{Scenario: s, info: info}
}

// Get returns the named scenario.
func Get(name string) (Scenario, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (run with -scenarios for the catalog)", name)
	}
	return s, nil
}

// Infos returns the registry cards of all scenarios, sorted by name.
func Infos() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	infos := make([]Info, 0, len(registry))
	for _, s := range registry {
		infos = append(infos, s.Info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}
