// Stands in for the assembly behind asmLeaf in a.go: with a .s file in the
// package the compiler accepts the body-less declaration. The package is
// only type-checked and compiled for export data, never linked.
