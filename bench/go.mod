module gosalam/bench

go 1.22

require gosalam v0.0.0

replace gosalam => ../
