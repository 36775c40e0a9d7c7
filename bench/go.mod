// The benchmark is a module of its own so that the repository's tier-1
// build and tests neither compile nor run it. Its module path sits under
// "nexus/", which is what lets it import nexus/internal/... packages; the
// replace directive points at the repository root one level up.
module nexus/bench

go 1.22

require nexus v0.0.0

replace nexus => ../
