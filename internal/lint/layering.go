package lint

import (
	"sort"
	"strings"
)

// Layering checks the declarative layer map (Config.Forbid,
// Config.CommandAllow, Config.CommandRestrict) against the module's
// import graph. Forbid rules are transitive — no import chain may lead
// from a From package to a To package, and a violation reports the full
// offending chain, not just the first edge — while the command
// allowlist binds direct imports: binaries touch only the blessed
// seams, so refactors behind those seams never ripple into cmd/.
// CommandRestrict narrows individual seams further, to the command
// packages that own them. The map lives in code (DefaultConfig) so the
// repo's architecture is a tested invariant, not a convention.
var Layering = &Analyzer{
	Name:      "layering",
	Doc:       "import-graph layer violations against the declarative layer map, full chains reported",
	Scope:     ScopeModule,
	RunModule: runLayering,
}

func runLayering(pass *ModulePass) {
	cfg := pass.Config
	// Sorted so multi-pattern restrictions report deterministically.
	restrictKeys := make([]string, 0, len(cfg.CommandRestrict))
	for k := range cfg.CommandRestrict {
		restrictKeys = append(restrictKeys, k)
	}
	sort.Strings(restrictKeys)
	for _, from := range pass.Mod.Paths() {
		if isExternalTestPkg(from) {
			continue
		}
		for i := range cfg.Forbid {
			rule := &cfg.Forbid[i]
			if !matchAny(from, rule.From) || matchAny(from, rule.To) {
				continue
			}
			chain := pass.Mod.Chain(from, func(p string) bool {
				return matchAny(p, rule.To) && !isExternalTestPkg(p)
			})
			if chain == nil {
				continue
			}
			why := rule.Why
			if why == "" {
				why = "forbidden by the layer map"
			}
			pass.ReportChain(pass.Mod.ImportPos(from, chain[1]), chain,
				"layer rule %q: %s must not reach %s — %s",
				rule.Name, from, chain[len(chain)-1], why)
		}
		if cfg.CommandPrefix != "" && strings.HasPrefix(from, cfg.CommandPrefix) {
			for _, dep := range pass.Mod.Imports(from) {
				if len(cfg.CommandAllow) > 0 && !matchAny(dep, cfg.CommandAllow) {
					pass.ReportChain(pass.Mod.ImportPos(from, dep), []string{from, dep},
						"command %s imports %s, which is not a blessed seam; reach it through the allowed packages or bless it in the layer map",
						from, dep)
					continue
				}
				for _, pattern := range restrictKeys {
					if matchPattern(dep, pattern) && !matchAny(from, cfg.CommandRestrict[pattern]) {
						pass.ReportChain(pass.Mod.ImportPos(from, dep), []string{from, dep},
							"command %s imports %s, a seam restricted to %s; use its contract package instead",
							from, dep, strings.Join(cfg.CommandRestrict[pattern], ", "))
					}
				}
			}
		}
	}
}

// isExternalTestPkg reports whether the import path names an external
// _test package as loaded by LoadModule (suffixed ".test"). Test code
// may import anything in the module; the architecture rules bind the
// shipped packages.
func isExternalTestPkg(path string) bool {
	return strings.HasSuffix(path, ".test")
}
