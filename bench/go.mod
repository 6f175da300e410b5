module pricesheriff/bench

go 1.22

require pricesheriff v0.0.0

replace pricesheriff => ../
