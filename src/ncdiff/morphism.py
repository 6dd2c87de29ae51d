"""Endomorphisms of a presented algebra and the derivations they twist.

An endomorphism is determined by its images on base generators; images of
inverse symbols are forced (the image of an invertible generator must be a
single invertible monomial).  A twisted derivation is the operator
e(x) = a * phi(x) - x * a for a weight a and a twist phi; it satisfies the
twisted Leibniz law e(xy) = e(x) phi(y) + x e(y).

Every twist in the paper's setting is diagonal: it scales each generator,
phi(g) = c_g * g, and then each inverse symbol too.  The scales are found
once, when the map is built.  A diagonal map keeps every word: a normal
word w goes to chi(w) * w, where chi(w) is the left fold ((1*c)*c)... of
its letters' scales.  That fold is exactly the coefficient that the
product of the letters' images builds, one factor at a time, so the image
of an element is ``{w: chi(w) * c}`` with the terms, dict order and stored
coefficients of the general path.  chi is memoized per word.  A map that
is not diagonal multiplies the letters' images and sums the results.
"""

from __future__ import annotations

from .algebra import Algebra, AlgebraError, Element, single_word, word_from_runs


class MorphismError(AlgebraError):
    pass


class Endomorphism:
    """An algebra endomorphism given by generator images."""

    __slots__ = ("algebra", "images", "name", "_scales", "_word_cache",
                 "_inverse")

    def __init__(self, algebra: Algebra, images: dict, name: str | None = None):
        """images maps base generator names to elements."""
        self.algebra = algebra
        self.name = name
        table = algebra.table
        by_symbol = {}
        for gen_name in table.base_names:
            if gen_name not in images:
                raise MorphismError("missing image for generator %r" % gen_name)
        for gen_name, img in images.items():
            if gen_name not in table.base_names:
                raise MorphismError("image for unknown generator %r" % gen_name)
            if not isinstance(img, Element) or img.algebra is not algebra:
                raise MorphismError("image of %r is not an algebra element" % gen_name)
            sym = table.index(gen_name)
            by_symbol[sym] = img
            if gen_name in table.invertible:
                by_symbol[table.inverse_index[sym]] = _invert_monomial(img, gen_name)
        self._set_images(by_symbol, _scales(by_symbol))

    @classmethod
    def of_symbols(cls, algebra: Algebra, images: dict, scales,
                   name: str | None = None) -> "Endomorphism":
        """The map with these images by symbol, inverse symbols included,
        as ``__init__`` derives them from images that it accepted, and the
        ``_scales`` it found for them (copied here); nothing is checked or
        derived again."""
        endo = cls.__new__(cls)
        endo.algebra = algebra
        endo.name = name
        endo._set_images(images, None if scales is None else dict(scales))
        return endo

    def _set_images(self, by_symbol: dict, scales) -> None:
        self.images = by_symbol
        self._scales = scales
        # word -> its scale under a diagonal map, else its image
        self._word_cache = {}
        self._inverse = None

    def apply(self, x: Element) -> Element:
        if x.algebra is not self.algebra:
            raise MorphismError("element of a different algebra")
        if self._scales is None:
            return self._apply_free(x.terms)
        chi = self._chi
        return Element(self.algebra, {word: chi(word) * coeff
                                      for word, coeff in x.terms.items()})

    __call__ = apply

    def _chi(self, word):
        """The scale of a word under a diagonal map: the left fold
        ((1*c)*c)... of its letters' scales, the coefficient of the product
        of the letters' images.  A run of a letter whose scale is a Laurent
        unit multiplies by one power, which stores exactly what the fold
        stores, since multiplying by a unit never renormalizes."""
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        scales = self._scales
        out = self.algebra._one
        for sym, count in word:
            scale = scales[sym]
            if count > 1 and scale._is_unit():
                out = out * scale ** count
                continue
            for _ in range(count):
                out = out * scale
        self._word_cache[word] = out
        return out

    def _apply_word(self, word) -> Element:
        """The image of a word under a map that is not diagonal."""
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        out = self.algebra.one()
        for sym, count in word:
            img = self.images[sym]
            for _ in range(count):
                out = out * img
        self._word_cache[word] = out
        return out

    def respects_relations(self) -> bool:
        """Check every declared relation and inverse-pair consistency."""
        alg = self.algebra
        table = alg.table
        syms = [table.index(name) for name in table.base_names
                if name in table.invertible]
        return (all(self._apply_free(lhs) == self._apply_free(rhs)
                    for lhs, rhs in alg.relations)
                and all(self.images[sym] * self.images[table.inverse_index[sym]]
                        == alg.one() for sym in syms))

    def _apply_free(self, terms: dict) -> Element:
        """The image of a free sum of words, which need not be normal."""
        if self._scales is not None:
            chi = self._chi
            return self.algebra.element(
                {word: chi(word) * coeff for word, coeff in terms.items()})
        out = self.algebra.zero()
        for word, coeff in terms.items():
            out = out + self._apply_word(word).scale(coeff)
        return out

    def inverse(self) -> "Endomorphism":
        """The inverse, built once and only for a diagonal map: it scales
        each generator by c_g^-1, so both compositions are the identity."""
        if self._inverse is None:
            if self._scales is None:
                raise MorphismError(
                    "cannot derive the inverse of a non-diagonal endomorphism")
            alg = self.algebra
            images = {name: alg.gen(name).scale(
                self._scales[alg.table.index(name)].inverse())
                for name in alg.table.base_names}
            name = None if self.name is None else self.name + "^-1"
            self._inverse = Endomorphism(alg, images, name)
        return self._inverse

    def __repr__(self):
        return "Endomorphism(%s)" % (self.name or "?")


def _scales(images: dict) -> dict | None:
    """The scale c_s per symbol when every image is c_s times its symbol,
    else None."""
    scales = {}
    for sym, img in images.items():
        if len(img.terms) != 1:
            return None
        (word, coeff), = img.terms.items()
        if word != single_word(sym):
            return None
        scales[sym] = coeff
    return scales


def _invert_monomial(img: Element, gen_name: str) -> Element:
    """Invert a single-term image whose word uses invertible symbols only."""
    if len(img.terms) != 1:
        raise MorphismError(
            "image of invertible generator %r is not a monomial" % gen_name)
    (word, coeff), = img.terms.items()
    table = img.algebra.table
    runs = []
    for sym, count in reversed(word):
        partner = table.inverse_index.get(sym)
        if partner is None:
            raise MorphismError(
                "image of invertible generator %r uses a non-invertible symbol"
                % gen_name)
        runs.append((partner, count))
    return img.algebra.element({word_from_runs(runs): coeff.inverse()})


class TwistedDerivation:
    """e(x) = weight * twist(x) - x * weight."""

    __slots__ = ("twist", "weight")

    def __init__(self, twist: Endomorphism, weight: Element):
        if weight.algebra is not twist.algebra:
            raise MorphismError("weight from a different algebra")
        self.twist = twist
        self.weight = weight

    def apply(self, x: Element) -> Element:
        return self.weight * self.twist.apply(x) - x * self.weight

    __call__ = apply

    def leibniz_defect(self, x: Element, y: Element) -> Element:
        """e(xy) - (e(x) phi(y) + x e(y)): zero when the twisted Leibniz law
        holds on the pair."""
        return self.apply(x * y) - (self.apply(x) * self.twist.apply(y)
                                    + x * self.apply(y))

    def associative_defect(self, x: Element, y: Element,
                           xy: Element) -> Element:
        """weight * (phi(xy) - phi(x) phi(y)), where xy is x * y.

        Expanding e(x) = a phi(x) - x a gives, term by term,
        e(xy) - e(x) phi(y) - x e(y) = a (phi(xy) - phi(x) phi(y)), with the
        two x a phi(y) terms and the two x y a terms cancelling.  That needs
        (x a) phi(y) = x (a phi(y)) and (x y) a = x (y a), so the value
        equals leibniz_defect(x, y) only where the product is associative:
        on an algebra whose rewriting passed its confluence check, where
        normal forms are unique (Bergman's diamond lemma).  Elsewhere only
        leibniz_defect is the defect.  With x * y it takes three products,
        where leibniz_defect takes nine."""
        phi = self.twist.apply
        return self.weight * (phi(xy) - phi(x) * phi(y))
