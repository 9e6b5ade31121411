let clog2 n =
  if n < 1 then invalid_arg "Util.clog2: argument must be >= 1";
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

let address_bits n = max 1 (clog2 n)
let bits_to_represent n = max 1 (clog2 (n + 1))
let is_power_of_two n = n > 0 && n land (n - 1) = 0
