module fuzzyfd/bench

go 1.24

require fuzzyfd v0.0.0

replace fuzzyfd => ../
