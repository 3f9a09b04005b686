module example.com/importfence

go 1.22
