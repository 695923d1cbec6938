// The benchmark is a module of its own so that it builds from its own
// directory and is not part of the program's `./...`. Its path sits under
// the program's module path, which is what lets it import repro/internal/...
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
