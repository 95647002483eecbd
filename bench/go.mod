module byzcons/bench

go 1.24

require byzcons v0.0.0

replace byzcons => ../
