Qualifiers { v >= 0, v <= 0 }

val f = \x. let x_0 = sub 1 x in let x_1 = sub 1 x_0 in let x_2 = sub 1 x_1 in x_2
