module legosdn/bench

go 1.22

require legosdn v0.0.0

replace legosdn => ../
