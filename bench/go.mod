module tempo/bench

go 1.22

require tempo v0.0.0

replace tempo => ../
