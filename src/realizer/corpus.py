"""Bundled proof corpus: closed derivations with simply existential goals.

Every derivation here normalizes to an existence introduction whose term
names a checkable witness, and together they cover the interesting rewrite
shapes: direct introductions, implication, conjunction, disjunction and
quantifier cuts, induction unfolding, and excluded-middle queries that are
granted, refuted, or buried under an elimination.  The corpus is written in
the proof-file syntax and read by sexpr, so it doubles as CLI input; see
corpus_text().
"""

from __future__ import annotations

from . import sexpr

_TEXT = """\
(deffn sq (comp * (proj 1 1) (proj 1 1)))
(defder direct-zero
  (der (exists-i 0) (seq (ctx) (exists x (atom = x 0)))
    (der atom-i (seq (ctx) (atom = 0 0)))))
(defder direct-square
  (der (exists-i 6) (seq (ctx) (exists x (atom = (* x x) 36)))
    (der atom-i (seq (ctx) (atom = (* 6 6) 36)))))
(defder cut-imply
  (der imply-e (seq (ctx) (exists x (atom = (+ x 1) 3)))
    (der (imply-i u) (seq (ctx) (imply (atom = (+ 2 2) 4) (exists x (atom = (+ x 1) 3))))
      (der (exists-i 2) (seq (ctx (u (atom = (+ 2 2) 4))) (exists x (atom = (+ x 1) 3)))
        (der atom-i (seq (ctx (u (atom = (+ 2 2) 4))) (atom = (+ 2 1) 3)))))
    (der atom-i (seq (ctx) (atom = (+ 2 2) 4)))))
(defder cut-and
  (der and-el (seq (ctx) (exists x (atom = x 5)))
    (der and-i (seq (ctx) (and (exists x (atom = x 5)) (atom = 1 1)))
      (der (exists-i 5) (seq (ctx) (exists x (atom = x 5)))
        (der atom-i (seq (ctx) (atom = 5 5))))
      (der atom-i (seq (ctx) (atom = 1 1))))))
(defder cut-or
  (der (or-e u) (seq (ctx) (exists x (atom < x 2)))
    (der or-il (seq (ctx) (or (atom < 1 2) (atom < 2 2)))
      (der atom-i (seq (ctx) (atom < 1 2))))
    (der (exists-i 1) (seq (ctx (u (atom < 1 2))) (exists x (atom < x 2)))
      (der (id u) (seq (ctx (u (atom < 1 2))) (atom < 1 2))))
    (der (exists-i 1) (seq (ctx (u (atom < 2 2))) (exists x (atom < x 2)))
      (der false-e (seq (ctx (u (atom < 2 2))) (atom < 1 2))
        (der atom-e (seq (ctx (u (atom < 2 2))) (atom bot))
          (der (id u) (seq (ctx (u (atom < 2 2))) (atom < 2 2))))))))
(defder cut-forall
  (der (forall-e 3) (seq (ctx) (exists y (atom = y 3)))
    (der (forall-i x) (seq (ctx) (forall x (exists y (atom = y x))))
      (der (exists-i x) (seq (ctx) (exists y (atom = y x)))
        (der (atom-post refl) (seq (ctx) (atom = x x)))))))
(defder cut-exists
  (der (exists-e u w) (seq (ctx) (exists y (atom = y 4)))
    (der (exists-i 4) (seq (ctx) (exists x (atom = x 4)))
      (der atom-i (seq (ctx) (atom = 4 4))))
    (der (exists-i w) (seq (ctx (u (atom = w 4))) (exists y (atom = y 4)))
      (der (id u) (seq (ctx (u (atom = w 4))) (atom = w 4))))))
; forall y. 5 < y fails at 0; the query's exception realizes the goal
(defder em-refuted
  (der (em u y) (seq (ctx) (exists x (atom = (* x x) x)))
    (der (exists-i 0) (seq (ctx (u (forall y (atom < 5 y)))) (exists x (atom = (* x x) x)))
      (der false-e (seq (ctx (u (forall y (atom < 5 y)))) (atom = (* 0 0) 0))
        (der atom-e (seq (ctx (u (forall y (atom < 5 y)))) (atom bot))
          (der (forall-e 0) (seq (ctx (u (forall y (atom < 5 y)))) (atom < 5 0))
            (der (id u) (seq (ctx (u (forall y (atom < 5 y)))) (forall y (atom < 5 y))))))))
    (der (exists-i 1)
         (seq (ctx (u (imply (atom < 5 y) (atom bot)))) (exists x (atom = (* x x) x)))
      (der atom-i (seq (ctx (u (imply (atom < 5 y) (atom bot)))) (atom = (* 1 1) 1))))))
; forall y. 0 <= y is granted at every query, leaving the left branch
(defder em-granted
  (der (em u y) (seq (ctx) (exists x (atom <= 0 x)))
    (der (exists-i 7) (seq (ctx (u (forall y (atom <= 0 y)))) (exists x (atom <= 0 x)))
      (der (forall-e 7) (seq (ctx (u (forall y (atom <= 0 y)))) (atom <= 0 7))
        (der (id u) (seq (ctx (u (forall y (atom <= 0 y)))) (forall y (atom <= 0 y))))))
    (der (exists-i 0) (seq (ctx (u (imply (atom <= 0 y) (atom bot)))) (exists x (atom <= 0 x)))
      (der atom-i (seq (ctx (u (imply (atom <= 0 y) (atom bot)))) (atom <= 0 0))))))
; the excluded-middle node sits under a conjunction elimination
(defder em-under-elim
  (der and-el (seq (ctx) (exists x (atom = x 5)))
    (der (em u y) (seq (ctx) (and (exists x (atom = x 5)) (atom = 0 0)))
      (der and-i
           (seq (ctx (u (forall y (atom < y 1)))) (and (exists x (atom = x 5)) (atom = 0 0)))
        (der (exists-i 0) (seq (ctx (u (forall y (atom < y 1)))) (exists x (atom = x 5)))
          (der false-e (seq (ctx (u (forall y (atom < y 1)))) (atom = 0 5))
            (der atom-e (seq (ctx (u (forall y (atom < y 1)))) (atom bot))
              (der (forall-e 1) (seq (ctx (u (forall y (atom < y 1)))) (atom < 1 1))
                (der (id u) (seq (ctx (u (forall y (atom < y 1)))) (forall y (atom < y 1))))))))
        (der false-e (seq (ctx (u (forall y (atom < y 1)))) (atom = 0 0))
          (der atom-e (seq (ctx (u (forall y (atom < y 1)))) (atom bot))
            (der (forall-e 1) (seq (ctx (u (forall y (atom < y 1)))) (atom < 1 1))
              (der (id u) (seq (ctx (u (forall y (atom < y 1)))) (forall y (atom < y 1))))))))
      (der and-i
           (seq (ctx (u (imply (atom < y 1) (atom bot)))) (and (exists x (atom = x 5)) (atom = 0 0)))
        (der (exists-i 5)
             (seq (ctx (u (imply (atom < y 1) (atom bot)))) (exists x (atom = x 5)))
          (der atom-i (seq (ctx (u (imply (atom < y 1) (atom bot)))) (atom = 5 5))))
        (der atom-i (seq (ctx (u (imply (atom < y 1) (atom bot)))) (atom = 0 0)))))))
; forall y. 3 <= y fails at 0
(defder em-bounded
  (der (em u y) (seq (ctx) (exists x (atom <= x 1)))
    (der (exists-i 0) (seq (ctx (u (forall y (atom <= 3 y)))) (exists x (atom <= x 1)))
      (der false-e (seq (ctx (u (forall y (atom <= 3 y)))) (atom <= 0 1))
        (der atom-e (seq (ctx (u (forall y (atom <= 3 y)))) (atom bot))
          (der (forall-e 0) (seq (ctx (u (forall y (atom <= 3 y)))) (atom <= 3 0))
            (der (id u) (seq (ctx (u (forall y (atom <= 3 y)))) (forall y (atom <= 3 y))))))))
    (der (exists-i 1) (seq (ctx (u (imply (atom <= 3 y) (atom bot)))) (exists x (atom <= x 1)))
      (der atom-i (seq (ctx (u (imply (atom <= 3 y) (atom bot)))) (atom <= 1 1))))))
(defder ind-two
  (der (ind ih v (exists w (atom = w v)) 2) (seq (ctx) (exists w (atom = w 2)))
    (der (exists-i 0) (seq (ctx) (exists w (atom = w 0)))
      (der atom-i (seq (ctx) (atom = 0 0))))
    (der (exists-e u z) (seq (ctx (ih (exists w (atom = w v)))) (exists w (atom = w (S v))))
      (der (id ih) (seq (ctx (ih (exists w (atom = w v)))) (exists w (atom = w v))))
      (der (exists-i (S z))
           (seq (ctx (ih (exists w (atom = w v))) (u (atom = z v))) (exists w (atom = w (S v))))
        (der (atom-post sub-fn)
             (seq (ctx (ih (exists w (atom = w v))) (u (atom = z v))) (atom = (S z) (S v)))
          (der (id u)
               (seq (ctx (ih (exists w (atom = w v))) (u (atom = z v))) (atom = z v))))))))
(defder square-fn
  (der (exists-i 3) (seq (ctx) (exists x (atom = (sq x) 9)))
    (der atom-i (seq (ctx) (atom = (sq 3) 9)))))
(defterm const-seven (lam State (app (inl Nat Ex) (num 7))))
(defterm raise-low (lam State (app (inr Nat Ex) (exc < (5) 2))))
"""


def corpus_file() -> sexpr.ProofFile:
    """The corpus as a proof file, ready for the CLI or for printing."""
    return sexpr.parse_file(_TEXT)


def corpus_text() -> str:
    return _TEXT
