"""URL helpers: hosts, site roots, intra-site tests.

CAFC-CH needs exactly two URL-level notions (Section 3.1 / 3.3):

* the *site* a page belongs to, so intra-site hubs can be discarded
  ("for some form pages, all backlinks belong to the same site as the page
  they point to ... they are eliminated");
* the *root page* of a site, whose backlinks are harvested alongside the
  form page's own ("we also retrieved backlinks to the root page of the
  site where the form is located").
"""

import re
from urllib.parse import urlparse

#: ``scheme://netloc`` ending the URL or followed by ``/``, ``?`` or
#: ``#``, where the scheme is one ``urlparse`` accepts and the netloc
#: is printable ASCII without ``@``, ``[``, ``]`` or ``\``.  On such a
#: URL ``urlparse`` strips nothing and reads exactly that netloc.
_PLAIN_NETLOC = re.compile(
    r"[A-Za-z][A-Za-z0-9+.-]*://([^\x00-\x20\x7f-\U0010ffff/?#@\[\]\\]*)"
    r"(?:[/?#]|\Z)"
)


def host_of(url: str) -> str:
    """The lowercase host of ``url`` ('' when unparseable): exactly
    ``urlparse(url).netloc.lower()``.

    A plain ``scheme://netloc`` URL is read with one regex match.  Any
    other — a netloc with ``@``, brackets, a backslash, whitespace, a
    control or non-ASCII character, or no ``//`` right after a valid
    scheme — goes through ``urlparse``.

    >>> host_of("http://www.jobs-r-us.com/search?go=1")
    'www.jobs-r-us.com'
    """
    match = _PLAIN_NETLOC.match(url)
    if match is None:
        return urlparse(url).netloc.lower()
    return match.group(1).lower()


def site_of(url: str) -> str:
    """A site key for ``url``: the host without a leading ``www.``.

    Good enough for intra-site detection on the corpora this library
    handles; a production system would use the public-suffix list.

    >>> site_of("http://www.jobs-r-us.com/a") == site_of("http://jobs-r-us.com/b")
    True
    """
    host = host_of(url)
    if host.startswith("www."):
        host = host[4:]
    return host


def same_site(url_a: str, url_b: str) -> bool:
    """True when the two URLs live on the same site."""
    site_a = site_of(url_a)
    return bool(site_a) and site_a == site_of(url_b)


def root_url_of(url: str) -> str:
    """The site root page URL ('http://host/').

    >>> root_url_of("http://www.jobs-r-us.com/search/advanced?x=1")
    'http://www.jobs-r-us.com/'
    """
    parsed = urlparse(url)
    scheme = parsed.scheme or "http"
    return f"{scheme}://{parsed.netloc}/"
