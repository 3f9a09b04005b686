module histcube/benchmark

go 1.22

require histcube v0.0.0

replace histcube => ../
