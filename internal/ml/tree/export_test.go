package tree

// The index-sort oracle, for the external tests that replay the ensembles
// built on this package.
var (
	FitIndexSort = fitIndexSort
	DiffTrees    = diffTrees
	TieData      = tieData
)
