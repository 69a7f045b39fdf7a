"""Morphisms sigma from variables to words, tested for (un)ambiguity, and
substitutions phi from variables to patterns, which witness fixed points.

Both are finite maps from variables to images: one private base stores the
variable-sorted images and implements construction, parsing, lookup and the
text form once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping, TypeVar

from .errors import DomainError, ParseError
from .words import ALPHABET, Pattern, parse_pattern, validate_word

_Map = TypeVar("_Map", bound="_VariableMap")


@dataclass(frozen=True, order=True)
class _VariableMap:
    """A finite map from variables to images, applied pointwise to patterns.

    Stored as a variable-sorted tuple of ``(variable, image)`` pairs so that
    instances are hashable and compare deterministically.  A subclass names
    its kind of map in ``_noun`` for error texts, reads an image's text in
    ``_parse_image`` and checks an image in ``_check_image``.
    """

    images: tuple[tuple[int, Any], ...]

    @classmethod
    def of(cls: type[_Map], mapping: Mapping[int, Any]) -> _Map:
        items = []
        for var in sorted(mapping):
            if type(var) is not int or var < 1:
                raise DomainError(f"{cls._noun} domain must be positive integers, got {var!r}")
            items.append((var, cls._check_image(mapping[var])))
        return cls(tuple(items))

    @classmethod
    def parse(cls: type[_Map], text: str) -> _Map:
        """Parse the ``1=...,2=...`` format, one image text per variable."""
        mapping: dict[int, Any] = {}
        if text.strip():
            for entry in text.split(","):
                var_text, sep, image = entry.strip().partition("=")
                if not sep:
                    raise ParseError(f"{cls._noun} entry {entry!r} is missing '='")
                try:
                    var = int(var_text)
                except ValueError:
                    raise ParseError(f"invalid {cls._noun} variable {var_text!r}") from None
                if var < 1:
                    raise ParseError(f"{cls._noun} variables must be >= 1, got {var_text!r}")
                if var in mapping:
                    raise ParseError(f"duplicate {cls._noun} variable {var}")
                mapping[var] = cls._parse_image(var, image)
        return cls.of(mapping)

    @cached_property
    def _map(self) -> dict[int, Any]:
        return dict(self.images)

    def __getitem__(self, var: int) -> Any:
        # a bool is no variable, though True == 1
        if type(var) is int and var in self._map:
            return self._map[var]
        raise DomainError(f"variable {var} outside {self._noun} domain")

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(self._map)

    def _images_of(self, symbols: tuple[int, ...]) -> list:
        """The image of each symbol, in order."""
        images = self._map
        try:
            return [images[s] for s in symbols]
        except KeyError as exc:
            raise DomainError(f"variable {exc.args[0]} outside {self._noun} domain") from None

    def __str__(self) -> str:
        return ",".join(f"{var}={image}" for var, image in self.images)


class Morphism(_VariableMap):
    """A finite map from variables to words; an empty image is the empty word."""

    _noun = "morphism"
    _check_image = staticmethod(validate_word)

    @staticmethod
    def _parse_image(var: int, text: str) -> str:
        for ch in text:
            if ch not in ALPHABET:
                raise ParseError(f"invalid letter {ch!r} in image of variable {var}")
        return text

    def get(self, var: int, default: str | None = None) -> str | None:
        return self._map.get(var, default) if type(var) is int else default

    @property
    def letters(self) -> frozenset[str]:
        return frozenset(ch for _, image in self.images for ch in image)

    def apply(self, pattern: Pattern) -> str:
        return "".join(self._images_of(pattern.symbols))

    def classify(self) -> "MorphismClass":
        values = [image for _, image in self.images]
        one_uniform = all(len(image) == 1 for image in values)
        nonerasing = all(image for image in values)
        renaming = one_uniform and len(set(values)) == len(values)
        return MorphismClass(one_uniform=one_uniform, nonerasing=nonerasing, renaming=renaming)


@dataclass(frozen=True)
class MorphismClass:
    one_uniform: bool
    nonerasing: bool
    renaming: bool


class Substitution(_VariableMap):
    """A finite map from variables to patterns (an endomorphism on patterns)."""

    _noun = "substitution"
    _parse_image = staticmethod(lambda var, text: parse_pattern(text))

    @staticmethod
    def _check_image(image: Any) -> Pattern:
        if not isinstance(image, Pattern):
            raise DomainError(f"substitution images must be patterns, got {image!r}")
        return image

    def apply(self, pattern: Pattern) -> Pattern:
        return Pattern(tuple(s for image in self._images_of(pattern.symbols) for s in image.symbols))


def renaming(variables: Iterable[int]) -> Morphism:
    """The injective 1-uniform morphism sending the n-th smallest variable to the n-th letter."""
    ordered = sorted(set(variables))
    if not ordered:
        return Morphism(())
    if len(ordered) > len(ALPHABET):
        raise DomainError(f"at most {len(ALPHABET)} variables can be renamed to letters, got {len(ordered)}")
    return Morphism.of({var: ALPHABET[rank] for rank, var in enumerate(ordered)})


def merge_morphism(
    variables: Iterable[int], i: int, j: int, alphabet_size: int | None = None
) -> Morphism:
    """The 1-uniform morphism renaming every variable injectively except that
    variable j is sent to the same letter as variable i.

    The underlying renaming maps the n-th smallest variable to the n-th
    letter, so the images over any pattern using all of ``variables`` show
    exactly ``len(variables) - 1`` distinct letters.
    """
    ordered = sorted(set(variables))
    if i not in ordered:
        raise DomainError(f"variable {i} not among the given variables")
    if j not in ordered:
        raise DomainError(f"variable {j} not among the given variables")
    if i == j:
        raise DomainError("the merged variables must be distinct")
    rank = {var: pos for pos, var in enumerate(ordered)}
    used = max(pos for var, pos in rank.items() if var != j) + 1
    if used > len(ALPHABET):
        raise DomainError(f"alphabet too small: construction needs {used} letters")
    if alphabet_size is not None and alphabet_size < used:
        raise DomainError(f"alphabet too small: construction needs {used} letters, got {alphabet_size}")
    images = {var: ALPHABET[rank[var]] for var in ordered if var != j}
    images[j] = images[i]
    return Morphism.of(images)


def erase_variable(pattern: Pattern, var: int) -> Pattern:
    """The pattern with every occurrence of ``var`` deleted."""
    return Pattern(tuple(s for s in pattern.symbols if s != var))
