"""Shared vocabulary pools and sampling helpers for the generator.

Two kinds of noise make real form pages hard to cluster, and both are
reproduced here:

* **generic web boilerplate** — terms like ``privacy``, ``copyright``,
  ``shipping`` that appear on pages of *every* domain (the paper's
  Section 2.1 example of terms TF-IDF must suppress);
* **site idiosyncrasy** — brand names and local flavour words unique to
  one site, which inflate vocabulary heterogeneity within a domain.
"""

import random
from typing import List, Sequence

# Boilerplate that appears across all domains.  The paper names privacy,
# shop(ping), copyright and help explicitly as high-frequency generic terms.
GENERIC_NOISE = [
    "privacy", "policy", "copyright", "reserved", "rights", "help",
    "shopping", "shop", "account", "contact", "about", "home", "news",
    "press", "terms", "conditions", "service", "services", "customer",
    "support", "faq", "sitemap", "welcome", "online", "free", "new",
    "best", "top", "deal", "deals", "save", "savings", "order", "member",
    "membership", "secure", "security", "guarantee", "gift", "gifts",
    "special", "offer", "offers", "today", "international", "advanced",
    "popular", "featured", "browse", "view", "list", "information",
    "email", "newsletter", "affiliate", "partner", "partners", "company",
]

# General-purpose "site flavor" vocabulary: each generated site adopts a
# few of these and repeats them across its pages.  They are domain-neutral
# but site-correlated, producing the within-domain vocabulary
# heterogeneity the paper says makes content-only clustering hard
# (Section 2.3).
MISC_FLAVOR = [
    "community", "resource", "resources", "guide", "guides", "network",
    "center", "solution", "solutions", "premier", "quality", "trusted",
    "award", "winning", "leader", "leading", "local", "nationwide",
    "experience", "experienced", "comprehensive", "exclusive", "selection",
    "choice", "choices", "value", "values", "expert", "experts",
    "professional", "directory", "source", "tool", "tools", "tips",
    "advice", "compare", "comparison", "reviews", "rated", "ratings",
    "easy", "fast", "simple", "instant", "complete", "ultimate",
    "official", "independent", "largest", "biggest", "premium",
]

# Submit-button caption variants (generic, domain-neutral).
SUBMIT_CAPTIONS = ["Search", "Go", "Find", "Submit", "Search Now", "Find It"]

# Syllables for synthetic brand names ("veltaro", "zumiko", ...).
_BRAND_SYLLABLES = [
    "ve", "zu", "ta", "mi", "ko", "ra", "lo", "ne", "qui", "sa", "po",
    "du", "li", "fa", "ro", "ge", "ba", "ci", "mo", "tu", "wa", "xe",
]


def brand_name(rng: random.Random) -> str:
    """A pronounceable synthetic brand name, 2-4 syllables.

    Brand names are site-unique vocabulary: they appear all over one site
    and nowhere else, exactly like real site names do.
    """
    n_syllables = rng.randint(2, 4)
    return "".join(rng.choice(_BRAND_SYLLABLES) for _ in range(n_syllables))


def zipf_sample(pool: Sequence[str], count: int, rng: random.Random, s: float = 1.2) -> List[str]:
    """Sample ``count`` items from ``pool`` with a Zipf-like skew.

    Earlier pool entries are proportionally more likely (weight
    ``1 / rank^s``), mirroring natural term-frequency skew: a domain's
    head vocabulary dominates its pages while tail terms appear rarely.
    Sampling is with replacement — repetition is the point (TF counts).
    """
    if not pool:
        return []
    weights = [1.0 / (rank + 1) ** s for rank in range(len(pool))]
    return rng.choices(list(pool), weights=weights, k=count)


def sample_distinct(pool: Sequence[str], count: int, rng: random.Random) -> List[str]:
    """Sample up to ``count`` distinct items (fewer if the pool is small)."""
    count = min(count, len(pool))
    return rng.sample(list(pool), count)
