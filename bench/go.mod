module diffusearch/bench

go 1.24

require diffusearch v0.0.0

replace diffusearch => ../
