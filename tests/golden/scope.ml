Qualifiers
{
   v >= 0,
   v <= 0,
   y = 5
}

val inc = \x. + x 1
val y = 5
val f = \x. + x y
val h = \x. let w = + x y in w
