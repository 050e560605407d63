"""Parameter sequences l = (l_1, l_2, ...) with |l_k| > 40, and their perturbations.

Four deterministic generators are provided (constant, periodic cycle, explicit
prefix with constant tail, and a seeded random annulus draw), together with a
sign schedule s_k in {-1, +1} organised in geometrically growing blocks and the
multiplicative perturbation l_k(x) = exp(x * s_k) * eta_k.

Every generator is a pure function of (spec, k): no sequential state, so a
spec can be evaluated at any index in any order.
"""

from __future__ import annotations

import cmath
import functools
import math

from .errors import InvalidSpec, PerturbationTooLarge

# Membership threshold for the parameter domain {|l| > 40}.
MIN_MODULUS = 40.0

# Philox4x64-10 (Salmon et al., SC'11) for RandomAnnulus: multipliers, Weyl key
# increments, and the bound of its 64-bit key words.
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_KEY_BOUND = 1 << 64
_MASK64 = _KEY_BOUND - 1


def _check_modulus(value: complex, what: str) -> None:
    if not cmath.isfinite(value):
        raise InvalidSpec(f"{what} {value} is not finite")
    if abs(value) <= MIN_MODULUS:
        raise InvalidSpec(f"{what} has modulus {abs(value):.6g} <= {MIN_MODULUS:g}")


class _Spec:
    """Immutable spec that compares, hashes and prints by its fields, in __slots__ order.

    Specs key lru_caches, so a spec equals only a spec of its own type: never
    a tuple, nor a spec of another type with the same fields.
    """

    __slots__ = ("_values",)

    def _freeze(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_values", values)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable spec")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable spec")

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return type(self), self._values


class Constant(_Spec):
    """l_k = value for every k."""

    __slots__ = ("value",)

    def __init__(self, value: complex):
        _check_modulus(value, "constant")
        self._freeze(value)


class Periodic(_Spec):
    """l_k cycles through `cycle` (1-based index k maps to cycle[(k-1) % len])."""

    __slots__ = ("cycle",)

    def __init__(self, cycle: tuple[complex, ...]):
        cycle = tuple(complex(c) for c in cycle)
        if not cycle:
            raise InvalidSpec("periodic cycle is empty")
        for c in cycle:
            _check_modulus(c, "cycle entry")
        self._freeze(cycle)


class Explicit(_Spec):
    """Finite prefix followed by a constant tail."""

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix: tuple[complex, ...], tail: complex):
        prefix = tuple(complex(c) for c in prefix)
        for c in prefix:
            _check_modulus(c, "prefix entry")
        _check_modulus(tail, "tail")
        self._freeze(prefix, tail)


class RandomAnnulus(_Spec):
    """Counter-based random draws from the annulus min_mod <= |l| <= max_mod.

    Each index k is generated from a Philox4x64-10 block keyed by (seed, k),
    so at(spec, k) is a pure function: no draw depends on earlier draws. The
    key words are 64 bits wide, so seed and k must lie in [0, 2^64).
    """

    __slots__ = ("seed", "min_mod", "max_mod")

    def __init__(self, seed: int, min_mod: float = 45.0, max_mod: float = 80.0):
        if not (math.isfinite(min_mod) and math.isfinite(max_mod)):
            raise InvalidSpec(
                f"random annulus bounds must be finite, got [{min_mod:g}, {max_mod:g}]"
            )
        if not (MIN_MODULUS < min_mod <= max_mod):
            raise InvalidSpec(
                f"random annulus needs {MIN_MODULUS:g} < min_mod <= max_mod, "
                f"got [{min_mod:g}, {max_mod:g}]"
            )
        if not 0 <= seed < _KEY_BOUND:
            raise InvalidSpec(f"seed must be an integer in [0, 2^64), got {seed}")
        self._freeze(seed, min_mod, max_mod)


class SignSchedule(_Spec):
    """Signs s_k in {-1, +1}, constant on blocks of geometrically growing length.

    Block m (m = 0, 1, ...) has length initial_block_len * growth_ratio**m and
    carries sign first_sign * (-1)**m.
    """

    __slots__ = ("initial_block_len", "growth_ratio", "first_sign")

    def __init__(self, initial_block_len: int = 2, growth_ratio: int = 2, first_sign: int = 1):
        if initial_block_len < 1:
            raise InvalidSpec("initial_block_len must be >= 1")
        if growth_ratio < 2:
            raise InvalidSpec("growth_ratio must be >= 2")
        if first_sign not in (-1, 1):
            raise InvalidSpec("first_sign must be -1 or +1")
        self._freeze(initial_block_len, growth_ratio, first_sign)

    def sign_at(self, k: int) -> int:
        """s_k for 1-based index k."""
        if k < 1:
            raise ValueError("k must be >= 1")
        length = self.initial_block_len
        end = length
        sign = self.first_sign
        while k > end:
            length *= self.growth_ratio
            end += length
            sign = -sign
        return sign


def cesaro_sum(schedule: SignSchedule, n: int) -> tuple[int, float]:
    """Partial sum S_n = sum_{k<=n} s_k and its average S_n / n.

    Computed blockwise, so cost is O(log n) rather than O(n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    covered = 0
    length = schedule.initial_block_len
    sign = schedule.first_sign
    while covered < n:
        take = min(length, n - covered)
        total += sign * take
        covered += take
        length *= schedule.growth_ratio
        sign = -sign
    return total, total / n


def delta(x: float) -> float:
    """Exact relative perturbation size sup_k |l_k(x) - eta_k| / |eta_k|.

    For l_k(x) = exp(x s_k) eta_k with s_k in {-1, +1} this supremum equals
    exp(|x|) - 1, which also satisfies the coarser linear bound e * |x|.
    """
    if abs(x) >= 1:
        raise ValueError("delta requires |x| < 1")
    return math.expm1(abs(x))


def delta_linear_bound(x: float) -> float:
    """The coarse bound e * |x| >= delta(x), reported alongside the exact value."""
    return math.e * abs(x)


def inf_modulus(spec) -> float:
    """Greatest lower bound of |l_k| over all k (exact per variant)."""
    if isinstance(spec, Constant):
        return abs(spec.value)
    if isinstance(spec, Periodic):
        return min(abs(c) for c in spec.cycle)
    if isinstance(spec, Explicit):
        return min([abs(c) for c in spec.prefix] + [abs(spec.tail)])
    if isinstance(spec, RandomAnnulus):
        return spec.min_mod
    if isinstance(spec, PerturbedSequence):
        return inf_modulus(spec.base) * math.exp(-abs(spec.x))
    raise TypeError(f"not a sequence spec: {spec!r}")


def max_perturbation(base) -> float:
    """Largest admissible |x| for perturbing `base`: r = min(1, log(inf|eta_k| / 40)).

    |x| < r keeps every exp(+-x) * eta_k strictly outside the disk of radius 40.
    The cap at 1 keeps delta() and the motion estimates in their valid range.
    """
    return min(1.0, math.log(inf_modulus(base) / MIN_MODULUS))


class PerturbedSequence(_Spec):
    """l_k(x) = exp(x * s_k) * eta_k over a base sequence eta."""

    __slots__ = ("base", "schedule", "x")

    def __init__(
        self,
        base: Constant | Periodic | Explicit | RandomAnnulus,
        schedule: SignSchedule = SignSchedule(),
        x: float = 0.0,
    ):
        if not math.isfinite(x):
            raise InvalidSpec(f"perturbation x = {x} is not finite")
        r = max_perturbation(base)
        if abs(x) >= r:
            raise PerturbationTooLarge(
                f"|x| = {abs(x):.6g} >= r = {r:.6g} for this base sequence"
            )
        self._freeze(base, schedule, x)


SequenceSpec = Constant | Periodic | Explicit | RandomAnnulus | PerturbedSequence


@functools.lru_cache(maxsize=4096)
def _annulus_draw(spec: RandomAnnulus, k: int) -> complex:
    """l_k of a RandomAnnulus, drawn in pure Python (~9 us, memoized).

    The draw is numpy's Generator(Philox(key=[seed, k])).uniform, twice, bit
    for bit: the first Philox4x64-10 block (counter 1, key (seed, k)) gives two
    words x, each mapped to u = (x >> 11) * 2^-53 in [0, 1), and then to the
    modulus min + (max - min) * u and the argument 2 pi u.
    """
    if not 0 <= k < _KEY_BOUND:
        raise OverflowError(f"index k = {k} does not fit the 64-bit Philox key")
    c0, c1, c2, c3 = 1, 0, 0, 0
    k0, k1 = spec.seed, k
    for _ in range(10):
        p0, p1 = _PHILOX_M0 * c0, _PHILOX_M1 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
        k0, k1 = (k0 + _PHILOX_W0) & _MASK64, (k1 + _PHILOX_W1) & _MASK64
    modulus = spec.min_mod + (spec.max_mod - spec.min_mod) * ((c0 >> 11) * 2.0**-53)
    argument = 2.0 * math.pi * ((c1 >> 11) * 2.0**-53)
    return complex(modulus * math.cos(argument), modulus * math.sin(argument))


def at(spec: SequenceSpec, k: int) -> complex:
    """The k-th parameter l_k (k >= 1). Always satisfies |l_k| > 40."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(spec, Constant):
        return complex(spec.value)
    if isinstance(spec, Periodic):
        return spec.cycle[(k - 1) % len(spec.cycle)]
    if isinstance(spec, Explicit):
        return spec.prefix[k - 1] if k <= len(spec.prefix) else complex(spec.tail)
    if isinstance(spec, RandomAnnulus):
        return _annulus_draw(spec, k)
    if isinstance(spec, PerturbedSequence):
        s = spec.schedule.sign_at(k)
        return math.exp(spec.x * s) * at(spec.base, k)
    raise TypeError(f"not a sequence spec: {spec!r}")


# ---------------------------------------------------------------------------
# Spec string grammar (CLI surface):
#   const:50
#   periodic:50,60+10i
#   explicit:41,42;tail=50
#   random:seed=7,min=45,max=80
#   perturb:base=<spec>;blocks=2x2;x=0.1[;sign=-1]
# Complex literals are written a+bi.
# ---------------------------------------------------------------------------


def parse_complex(text: str) -> complex:
    """Parse an a+bi literal (also accepts plain reals and 'bi' forms)."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise ValueError(f"cannot parse complex literal {text!r}") from None


def format_complex(z: complex) -> str:
    """Canonical a+bi form with 17 significant digits."""
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:.17g}"
    if z.real == 0:
        return f"{z.imag:.17g}i"
    sign = "+" if z.imag > 0 else "-"
    return f"{z.real:.17g}{sign}{abs(z.imag):.17g}i"


def _parse_keyvals(parts, allowed: tuple[str, ...]) -> dict[str, str]:
    """The key=value strings of parts as a dict; an unknown or repeated key is an error."""
    out: dict[str, str] = {}
    for part in parts:
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if not value:
            raise ValueError(f"expected key=value, got {part!r}")
        if key not in allowed:
            raise ValueError(f"unknown key {key!r}, expected one of {', '.join(allowed)}")
        if key in out:
            raise ValueError(f"key {key!r} given twice")
        out[key] = value.strip()
    return out


def parse_schedule(text: str, first_sign: int = 1) -> SignSchedule:
    """Parse the AxB block form, e.g. '2x2' -> initial length 2, ratio 2."""
    left, _, right = text.lower().partition("x")
    try:
        return SignSchedule(int(left), int(right), first_sign)
    except ValueError:
        raise ValueError(f"cannot parse block schedule {text!r}; expected AxB") from None


def format_schedule(schedule: SignSchedule) -> str:
    return f"{schedule.initial_block_len}x{schedule.growth_ratio}"


def parse_sequence(text: str) -> SequenceSpec:
    """Parse a sequence spec string in the grammar above."""
    head, sep, body = text.strip().partition(":")
    if not sep:
        raise ValueError(f"sequence spec {text!r} lacks a 'kind:' prefix")
    kind = head.strip().lower()
    if kind == "const":
        return Constant(parse_complex(body))
    if kind == "periodic":
        return Periodic(tuple(parse_complex(p) for p in body.split(",") if p))
    if kind == "explicit":
        values, _, tail_part = body.partition(";")
        keys = _parse_keyvals(tail_part.split(","), ("tail",))
        if "tail" not in keys:
            raise ValueError("explicit spec requires ';tail=<value>'")
        prefix = tuple(parse_complex(p) for p in values.split(",") if p)
        return Explicit(prefix, parse_complex(keys["tail"]))
    if kind == "random":
        keys = _parse_keyvals(body.split(","), ("seed", "min", "max"))
        if "seed" not in keys:
            raise ValueError("random spec requires 'seed=<int>'")
        return RandomAnnulus(
            seed=int(keys["seed"]),
            min_mod=float(keys.get("min", 45.0)),
            max_mod=float(keys.get("max", 80.0)),
        )
    if kind == "perturb":
        # The base value may itself contain ';' (explicit specs), so fold any
        # segment that does not start with a known key back into the base.
        allowed = ("base", "blocks", "x", "sign")
        merged: list[str] = []
        for seg in body.split(";"):
            if merged and seg.partition("=")[0].strip() not in allowed:
                merged[-1] += ";" + seg
            else:
                merged.append(seg)
        keys = _parse_keyvals(merged, allowed)
        if "base" not in keys:
            raise ValueError("perturb spec requires 'base=<spec>'")
        first_sign = int(keys.get("sign", 1))
        schedule = parse_schedule(keys.get("blocks", "2x2"), first_sign)
        return PerturbedSequence(
            base=parse_sequence(keys["base"]),
            schedule=schedule,
            x=float(keys.get("x", 0.0)),
        )
    raise ValueError(f"unknown sequence kind {kind!r}")


def format_sequence(spec: SequenceSpec) -> str:
    """Canonical spec string; format_sequence(parse_sequence(s)) is idempotent."""
    if isinstance(spec, Constant):
        return f"const:{format_complex(spec.value)}"
    if isinstance(spec, Periodic):
        return "periodic:" + ",".join(format_complex(c) for c in spec.cycle)
    if isinstance(spec, Explicit):
        values = ",".join(format_complex(c) for c in spec.prefix)
        return f"explicit:{values};tail={format_complex(spec.tail)}"
    if isinstance(spec, RandomAnnulus):
        return f"random:seed={spec.seed},min={spec.min_mod:.17g},max={spec.max_mod:.17g}"
    if isinstance(spec, PerturbedSequence):
        text = (
            f"perturb:base={format_sequence(spec.base)}"
            f";blocks={format_schedule(spec.schedule)};x={spec.x:.17g}"
        )
        if spec.schedule.first_sign != 1:
            text += f";sign={spec.schedule.first_sign}"
        return text
    raise TypeError(f"not a sequence spec: {spec!r}")
